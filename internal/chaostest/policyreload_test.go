package chaostest

import (
	"fmt"
	"testing"
	"time"

	"tax/internal/briefcase"
	"tax/internal/core"
	"tax/internal/faults"
	"tax/internal/firewall"
	"tax/internal/simnet"
)

// TestPolicyReloadExactlyOnceUnderFaults: a park-everything policy on
// the receiving host holds a stream of cross-host messages that arrive
// through a lossy, duplicating network; a hot reload to an allow
// ruleset then releases them. The contract under fault injection is the
// park-table one: every logical message is delivered exactly once — the
// dedup window turns transport duplicates and sender re-transmissions
// into one admission each, a policy-held park survives registration
// flushes, and the reload's stripe-locked takeHeld releases each held
// frame to exactly one deliverer. Five seeds, same assertion.
func TestPolicyReloadExactlyOnceUnderFaults(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1999, 31337} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runPolicyReloadScenario(t, seed)
		})
	}
}

func runPolicyReloadScenario(t *testing.T, seed int64) {
	const n = 20
	s, err := core.NewSystem(simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.AddNode("ha", core.NodeOptions{NoCVM: true, NoServices: true}); err != nil {
		t.Fatal(err)
	}
	nb, err := s.AddNode("hb", core.NodeOptions{
		NoCVM:        true,
		NoServices:   true,
		DedupWindow:  256,
		QueueTimeout: time.Minute,                    // parks must outlive the fault storm
		Policy:       "hold: park tourist send **\n", // default deny
	})
	if err != nil {
		t.Fatal(err)
	}
	na, err := s.Node("ha")
	if err != nil {
		t.Fatal(err)
	}

	plan := faults.New(faults.Config{Seed: seed, Drop: 0.15, Duplicate: 0.15})
	plan.Bind(s.Net)

	src, err := na.FW.Register("vm_go", "tourist", "src")
	if err != nil {
		t.Fatal(err)
	}
	sink, err := nb.FW.Register("vm_go", "tourist", "sink")
	if err != nil {
		t.Fatal(err)
	}

	// One briefcase per logical message, re-sent verbatim each round:
	// identical bytes hash identically, so the receiver's dedup window
	// admits each logical message at most once no matter how many copies
	// the lossy network (or the sender's retransmissions) produce.
	msgs := make([]*briefcase.Briefcase, n)
	for i := range msgs {
		bc := briefcase.New()
		bc.SetString(briefcase.FolderSysTarget, "tacoma://hb/tourist/sink")
		bc.SetString(firewall.FolderMsgID, fmt.Sprintf("m-%d-%d", seed, i))
		msgs[i] = bc
	}
	// Resend every message each round until all n are parked on hb. A
	// drop can exhaust the forwarder's retries and surface as a Send
	// error — that is this loop's job to absorb; the dedup window keeps
	// the successful copies from ever counting twice.
	var lastErr error
	deadline := time.Now().Add(15 * time.Second)
	for nb.FW.Pending() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d messages parked before deadline (last send error: %v)",
				nb.FW.Pending(), n, lastErr)
		}
		for _, bc := range msgs {
			if err := na.FW.Send(src.GlobalURI(), bc); err != nil {
				lastErr = err
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	// All n admissions are policy-held; none reached the sink, and the
	// sink's registration did not flush them.
	if cnt, _ := drain(sink, 0); cnt != 0 {
		t.Fatalf("%d messages leaked past the park verdict", cnt)
	}

	if _, err := nb.FW.ReloadPolicy("default deny\nok: allow tourist send **\n"); err != nil {
		t.Fatal(err)
	}

	seen := make(map[string]int)
	total := 0
	drainDeadline := time.Now().Add(10 * time.Second)
	for total < n && time.Now().Before(drainDeadline) {
		bc, err := sink.Recv(time.Second)
		if err != nil {
			continue
		}
		id, _ := bc.GetString(firewall.FolderMsgID)
		seen[id]++
		total++
	}
	if total != n || len(seen) != n {
		t.Fatalf("delivered %d messages, %d unique ids, want %d/%d", total, len(seen), n, n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("message %s delivered %d times", id, c)
		}
	}
	// Nothing is still parked, and late duplicate copies (already
	// observed by the dedup window) never materialize as deliveries.
	time.Sleep(50 * time.Millisecond)
	if extra, _ := drain(sink, 0); extra != 0 {
		t.Errorf("%d duplicate deliveries after the stream completed", extra)
	}
	if p := nb.FW.Pending(); p != 0 {
		t.Errorf("Pending = %d after release", p)
	}
}

// drain empties a mailbox, returning how many briefcases it held.
func drain(r *firewall.Registration, wait time.Duration) (int, error) {
	nDrained := 0
	for {
		if wait > 0 {
			if _, err := r.Recv(wait); err != nil {
				return nDrained, nil
			}
			nDrained++
			continue
		}
		if _, ok := r.TryRecv(); !ok {
			return nDrained, nil
		}
		nDrained++
	}
}
