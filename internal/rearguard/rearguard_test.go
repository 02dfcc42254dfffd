package rearguard_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/core"
	"tax/internal/firewall"
	"tax/internal/rearguard"
	"tax/internal/simnet"
	"tax/internal/wrapper"
)

const ckptPath = "/ckpt/guarded"

// newSystem boots a simulated deployment with the checkpoint and beacon
// wrappers deployed on every node.
func newSystem(t *testing.T, hosts ...string) *core.System {
	t.Helper()
	s, err := core.NewSystem(simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	for _, h := range hosts {
		if _, err := s.AddNode(h, core.NodeOptions{NoCVM: true, DedupWindow: 64}); err != nil {
			t.Fatal(err)
		}
	}
	s.DeployWrapper("checkpoint:"+ckptPath, func() wrapper.Wrapper {
		return &wrapper.Checkpoint{StoreURI: "tacoma://" + hosts[0] + "//ag_fs", Path: ckptPath}
	})
	s.DeployWrapper(rearguard.WrapperName, func() wrapper.Wrapper {
		return &rearguard.Beacon{}
	})
	return s
}

// guardedBriefcase builds an itinerary briefcase wrapped checkpoint-
// outside-beacon (so pre-move snapshots include the _RGLAST stamp).
func guardedBriefcase(stops ...string) *briefcase.Briefcase {
	bc := briefcase.New()
	bc.Ensure(briefcase.FolderSysWrap).AppendString("checkpoint:"+ckptPath, rearguard.WrapperName)
	bc.Ensure(briefcase.FolderHosts).AppendString(stops...)
	firewall.SetRetryPolicy(bc, firewall.RetryPolicy{Attempts: 4, Backoff: 100 * time.Microsecond})
	return bc
}

func newGuard(t *testing.T, home *core.Node, program string) *rearguard.Guard {
	t.Helper()
	g, err := rearguard.NewGuard(rearguard.Config{
		FW: home.FW,
		Launch: func(p, n, prog string, bc *briefcase.Briefcase) (*firewall.Registration, error) {
			return home.VM.Launch(p, n, prog, bc)
		},
		Program:         program,
		Checkpoint:      ckptPath,
		HopDeadline:     400 * time.Millisecond,
		MaxRecoveries:   3,
		ReinsertLastHop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// TestGuardCleanItinerary: a fault-free tour completes with zero
// recoveries and Wait returns nil.
func TestGuardCleanItinerary(t *testing.T) {
	s := newSystem(t, "home", "h2", "h3")
	home, _ := s.Node("home")

	var mu sync.Mutex
	var visited []string
	s.DeployProgram("tour", func(ctx *agent.Context) error {
		return agent.RunItinerary(ctx, func(ctx *agent.Context) error {
			mu.Lock()
			visited = append(visited, ctx.Host())
			mu.Unlock()
			return nil
		})
	})

	g := newGuard(t, home, "tour")
	if _, err := g.Launch(guardedBriefcase("tacoma://h2//vm_go", "tacoma://h3//vm_go")); err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(10 * time.Second); err != nil {
		t.Fatalf("clean itinerary: %v", err)
	}
	if n := g.Recoveries(); n != 0 {
		t.Errorf("recoveries = %d, want 0", n)
	}
	mu.Lock()
	got := strings.Join(visited, ",")
	mu.Unlock()
	if got != "home,h2,h3" {
		t.Errorf("visited %s, want home,h2,h3", got)
	}
}

// TestGuardRecoversCrashedHop: h2 crashes (transport-level) while the
// agent is there; the guard times out, restores the pre-move snapshot,
// reinserts the dead stop, and the tour completes via h3 — with the
// still-dead h2 recorded as skipped rather than silently dropped.
func TestGuardRecoversCrashedHop(t *testing.T) {
	s := newSystem(t, "home", "h2", "h3")
	home, _ := s.Node("home")

	var mu sync.Mutex
	var visited []string
	var skipped []string
	crashOnce := make(chan struct{}, 1)
	crashOnce <- struct{}{}

	s.DeployProgram("tour", func(ctx *agent.Context) error {
		err := agent.RunItinerary(ctx, func(ctx *agent.Context) error {
			mu.Lock()
			visited = append(visited, ctx.Host())
			mu.Unlock()
			if ctx.Host() == "h2" {
				select {
				case <-crashOnce:
					// The host drops off the network mid-visit: every
					// report and move from here on is lost.
					s.Net.Crash("h2")
				default:
				}
			}
			return nil
		})
		if err == nil {
			mu.Lock()
			skipped = append(skipped, agent.Skipped(ctx)...)
			mu.Unlock()
		}
		return err
	})

	g := newGuard(t, home, "tour")
	if _, err := g.Launch(guardedBriefcase("tacoma://h2//vm_go", "tacoma://h3//vm_go")); err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(15 * time.Second); err != nil {
		t.Fatalf("guarded itinerary did not recover: %v", err)
	}
	if n := g.Recoveries(); n < 1 {
		t.Errorf("recoveries = %d, want >= 1", n)
	}
	mu.Lock()
	defer mu.Unlock()
	joined := strings.Join(visited, ",")
	if !strings.HasPrefix(joined, "home,h2") {
		t.Errorf("tour never reached h2 before the crash: %s", joined)
	}
	if !strings.Contains(joined[len("home,h2"):], "home") || !strings.HasSuffix(joined, "h3") {
		t.Errorf("recovered tour should resume at home and finish on h3: %s", joined)
	}
	// The reinserted dead stop is skipped, not silently lost.
	found := false
	for _, sk := range skipped {
		if strings.Contains(sk, "h2") {
			found = true
		}
	}
	if !found {
		t.Errorf("dead stop not recorded as skipped: %v", skipped)
	}
	// The recovery is observable: counter bumped and a recover event
	// logged (the system-wide event log is off by default here, so only
	// assert when enabled — the counter always exists).
	if v := home.FW.Telemetry().Registry().Counter("rearguard.recoveries", "host", "home").Value(); v < 1 {
		t.Errorf("rearguard.recoveries = %d, want >= 1", v)
	}
}

// TestGuardFailReportRecoversImmediately: a faulting agent (live host)
// reports the failure, so the guard recovers without waiting out the
// hop deadline, and a poisoned program exhausts the budget with a typed
// error.
func TestGuardFailReportRecoversImmediately(t *testing.T) {
	s := newSystem(t, "home", "h2")
	home, _ := s.Node("home")

	s.DeployProgram("doomed", func(ctx *agent.Context) error {
		return errors.New("poisoned visit")
	})

	g := newGuard(t, home, "doomed")
	if _, err := g.Launch(guardedBriefcase("tacoma://h2//vm_go")); err != nil {
		t.Fatal(err)
	}
	err := g.Wait(10 * time.Second)
	if !errors.Is(err, rearguard.ErrUnrecovered) {
		t.Fatalf("poisoned program: err = %v, want ErrUnrecovered", err)
	}
	if n := g.Recoveries(); n != 4 {
		// MaxRecoveries relaunches plus the final over-budget attempt.
		t.Errorf("recoveries = %d, want 4 (3 relaunches + budget check)", n)
	}
}

// TestGuardMissingSnapshotIsTyped: recovery with no snapshot in the
// store fails with ErrRecoveryFailed, not a hang.
func TestGuardMissingSnapshotIsTyped(t *testing.T) {
	s := newSystem(t, "home")
	home, _ := s.Node("home")

	g, err := rearguard.NewGuard(rearguard.Config{
		FW: home.FW,
		Launch: func(p, n, prog string, bc *briefcase.Briefcase) (*firewall.Registration, error) {
			return home.VM.Launch(p, n, prog, bc)
		},
		Program:     "ghost",
		Checkpoint:  "/ckpt/never-written",
		HopDeadline: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	// No Launch: the watcher is started manually through a silent
	// program that never reports.
	s.DeployProgram("ghost", func(ctx *agent.Context) error {
		// Strip the guard address so the beacon stays silent and the
		// deadline fires.
		ctx.Briefcase().Drop(briefcase.FolderSysRearGuard)
		return nil
	})
	bc := briefcase.New()
	bc.Ensure(briefcase.FolderSysWrap).AppendString(rearguard.WrapperName)
	if _, err := g.Launch(bc); err != nil {
		t.Fatal(err)
	}
	err = g.Wait(10 * time.Second)
	if !errors.Is(err, rearguard.ErrRecoveryFailed) {
		t.Fatalf("err = %v, want ErrRecoveryFailed", err)
	}
}
