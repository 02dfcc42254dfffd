package chaostest

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"tax/internal/briefcase"
	"tax/internal/core"
	"tax/internal/rearguard"
)

// chaosSeeds are the documented fixed seeds `make chaos` replays; keep in
// sync with the Makefile.
var chaosSeeds = []int64{1, 7, 42, 1999, 31337}

// TestChaosDeterministicFaultLog: the acceptance bar for reproducibility
// — the same scenario under the same seed yields a byte-identical
// canonical fault log on a second run, and a different seed does not.
func TestChaosDeterministicFaultLog(t *testing.T) {
	sc := Scenario{
		Seed:      42,
		Drop:      0.15,
		Duplicate: 0.1,
		Delay:     0.3,
	}
	first, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if first.Err != nil {
		t.Fatalf("seed 42 run failed: %v", first.Err)
	}
	second, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.FaultLog, second.FaultLog) {
		t.Errorf("same seed, different fault logs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			first.FaultLog, second.FaultLog)
	}
	sc.Seed = 43
	other, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first.FaultLog, other.FaultLog) {
		t.Error("different seeds produced identical fault logs")
	}
}

// TestChaosRecoveryRate: under drop probability 0.3 the retry + rear-
// guard machinery completes at least 95% of 3-hop itineraries across the
// seed corpus, and every non-completion is a typed rearguard failure —
// never a hang, never an untyped error.
func TestChaosRecoveryRate(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep in -short mode")
	}
	seeds := make([]int64, 0, 20)
	seeds = append(seeds, chaosSeeds...)
	for s := int64(100); len(seeds) < 20; s++ {
		seeds = append(seeds, s)
	}
	completed := 0
	for _, seed := range seeds {
		res, err := Run(Scenario{Seed: seed, Drop: 0.3, Duplicate: 0.1, Delay: 0.2})
		if err != nil {
			t.Fatalf("seed %d: harness error: %v", seed, err)
		}
		if res.Completed() {
			completed++
			if stop, ok := res.ExactlyOnce(); !ok {
				t.Errorf("seed %d: effect contract violated at %s: effects=%v skipped=%v",
					seed, stop, res.Effects, res.Skipped)
			}
		} else {
			var typed bool
			for _, want := range []error{
				rearguard.ErrUnrecovered, rearguard.ErrRecoveryFailed, rearguard.ErrWaitTimeout,
			} {
				if errors.Is(res.Err, want) {
					typed = true
				}
			}
			if !typed {
				t.Errorf("seed %d: non-completion with untyped error: %v", seed, res.Err)
			}
			t.Logf("seed %d did not complete: %v (recoveries=%d)", seed, res.Err, res.Recoveries)
		}
	}
	if min := (len(seeds)*95 + 99) / 100; completed < min {
		t.Errorf("completion rate %d/%d below 95%%", completed, len(seeds))
	}
}

// TestChaosCrashedStopIsSkippedExactlyOnce: a stop that crashes on
// arrival and never returns forces a recovery; the tour still completes
// with the dead stop recorded skipped and every live stop's effect
// applied exactly once.
func TestChaosCrashedStopIsSkippedExactlyOnce(t *testing.T) {
	res, err := Run(Scenario{Seed: 7, CrashOnArrival: "h2", HopDeadline: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed() {
		t.Fatalf("run did not complete: %v", res.Err)
	}
	if res.Recoveries < 1 {
		t.Errorf("recoveries = %d, want >= 1", res.Recoveries)
	}
	if stop, ok := res.ExactlyOnce(); !ok {
		t.Errorf("effect contract violated at %s: effects=%v skipped=%v", stop, res.Effects, res.Skipped)
	}
	if res.Effects["h1"] != 1 || res.Effects["h3"] != 1 {
		t.Errorf("live stops not applied exactly once: %v", res.Effects)
	}
}

// TestChaosCrashWithRestartRecoversTheStop: when the crashed host comes
// back before recovery retries it, the reinserted stop is executed and
// its effect still applies exactly once despite the replay.
func TestChaosCrashWithRestartRecoversTheStop(t *testing.T) {
	res, err := Run(Scenario{
		Seed:           11,
		CrashOnArrival: "h2",
		RestartDelay:   50 * time.Millisecond,
		HopDeadline:    400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed() {
		t.Fatalf("run did not complete: %v", res.Err)
	}
	if stop, ok := res.ExactlyOnce(); !ok {
		t.Errorf("effect contract violated at %s: effects=%v skipped=%v", stop, res.Effects, res.Skipped)
	}
	if res.Effects["h2"] != 1 {
		t.Errorf("restarted stop h2 effects = %d, want 1 (attempts=%v)", res.Effects["h2"], res.Attempts)
	}
}

// TestRecoveryFromAnyPrefixIsIdempotent is the property test: for every
// checkpoint prefix k of the itinerary (the snapshot taken before hop
// k+1), relaunching from that snapshot — even though the original run
// already completed — converges to the same exactly-once effects. The
// replayed visits are absorbed by the idempotent-effect discipline.
func TestRecoveryFromAnyPrefixIsIdempotent(t *testing.T) {
	w, err := newWorld(Scenario{}, 1, "ag_fs", core.NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.s.Close() })
	launch := func(k int) {
		t.Helper()
		// The k-prefix snapshot: the briefcase as sent toward stop k+1 —
		// stops 0..k-1 already popped from HOSTS.
		bc := w.briefcase(0)
		hosts, err := bc.Folder(briefcase.FolderHosts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			hosts.Pop()
		}
		guard, err := w.guard(0)
		if err != nil {
			t.Fatal(err)
		}
		defer guard.Close()
		if _, err := guard.Launch(bc); err != nil {
			t.Fatalf("prefix %d: %v", k, err)
		}
		if err := guard.Wait(10 * time.Second); err != nil {
			t.Fatalf("prefix %d relaunch never completed: %v", k, err)
		}
		// The guard is only the launcher here: each prefix must converge
		// in one relaunch, not by the guard's quiet retries.
		if n := guard.Recoveries(); n != 0 {
			t.Fatalf("prefix %d relaunch needed %d guard recoveries, want 0", k, n)
		}
	}

	// Baseline full run, then a relaunch from every prefix.
	for k := 0; k <= len(Stops); k++ {
		launch(0)
		if k > 0 {
			launch(k)
		}
		w.mu.Lock()
		for _, stop := range Stops {
			if n := w.effects[visit{"", stop}]; n != 1 {
				t.Fatalf("after prefix %d replay: effects[%s] = %d, want 1 (attempts=%v)",
					k, stop, n, w.attempts)
			}
		}
		// Reset for the next prefix so each round checks independently.
		w.effects = make(map[visit]int)
		w.attempts = make(map[visit]int)
		w.mu.Unlock()
	}
}
