package wrapper_test

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
	"tax/internal/uri"
	"tax/internal/wrapper"
)

// fetchCheckpoint fetches and decodes a snapshot from a node's ag_fs,
// returning the store's error (e.g. "no such file") verbatim.
func fetchCheckpoint(t *testing.T, n *core.Node, path string) (*briefcase.Briefcase, error) {
	t.Helper()
	reg, err := n.FW.Register("test", "system", "ckpt-reader")
	if err != nil {
		t.Fatal(err)
	}
	defer n.FW.Unregister(reg)
	ctx := agent.NewContext(n.FW, reg, briefcase.New(), nil, nil)
	req := briefcase.New()
	req.SetString("_SVCOP", "get")
	req.SetString("_PATH", path)
	resp, err := ctx.MeetDirect("ag_fs", req, 5*time.Second)
	if err != nil {
		return nil, err
	}
	data, err := resp.Folder("_DATA")
	if err != nil {
		t.Fatalf("checkpoint %s has no data: %v", path, resp)
	}
	raw, err := data.Element(0)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := briefcase.Decode(raw)
	if err != nil {
		t.Fatalf("checkpoint %s does not decode: %v", path, err)
	}
	return snap, nil
}

// readCheckpoint is fetchCheckpoint for callers that require the
// snapshot to exist.
func readCheckpoint(t *testing.T, n *core.Node, path string) *briefcase.Briefcase {
	t.Helper()
	snap, err := fetchCheckpoint(t, n, path)
	if err != nil {
		t.Fatalf("checkpoint read %s: %v", path, err)
	}
	return snap
}

// TestCheckpointSnapshotsProgress verifies the passive-replication
// wrapper stores a decodable snapshot at home reflecting the agent's
// progress across hops — and prunes it once the itinerary completes
// cleanly (the regression half: the snapshot used to be orphaned in the
// store forever).
func TestCheckpointSnapshotsProgress(t *testing.T) {
	s := newSystem(t, "home", "h2")
	home, _ := s.Node("home")

	s.DeployWrapper("checkpoint:/ckpt/job", func() wrapper.Wrapper {
		return &wrapper.Checkpoint{StoreURI: "tacoma://home//ag_fs", Path: "/ckpt/job"}
	})
	arrived := make(chan string, 2)
	release := make(chan struct{})
	s.DeployProgram("job", func(ctx *agent.Context) error {
		arrived <- ctx.Host()
		ctx.Briefcase().SetString("PROGRESS", "visited "+ctx.Host())
		if ctx.Host() == "home" {
			if err := ctx.Go("tacoma://h2//vm_go"); errors.Is(err, agent.ErrMoved) {
				return err
			}
		}
		// Hold the agent alive on h2 so the test can observe the
		// mid-tour snapshot before completion prunes it.
		<-release
		return nil
	})
	bc := briefcase.New()
	bc.Ensure(briefcase.FolderSysWrap).AppendString("checkpoint:/ckpt/job")
	if _, err := home.VM.Launch("system", "job", "job", bc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatal("itinerary stalled")
		}
	}
	// Init on h2 re-snapshots after arrival; poll for the settled state.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := readCheckpoint(t, home, "/ckpt/job")
		prog, _ := snap.GetString("PROGRESS")
		if strings.Contains(prog, "visited home") || strings.Contains(prog, "visited h2") {
			if !snap.Has(briefcase.FolderSysTarget) {
				break // routing folders scrubbed from the snapshot
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot never converged: %v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Clean completion must prune the now-stale snapshot from the store.
	close(release)
	deadline = time.Now().Add(5 * time.Second)
	for {
		_, err := fetchCheckpoint(t, home, "/ckpt/job")
		if err != nil && strings.Contains(err.Error(), "no such file") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("completed itinerary's snapshot never pruned (err=%v)", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCrashRecoveryFromCheckpoint is the §4 fault-tolerance scenario end
// to end: an itinerant worker dies mid-tour (its host is partitioned and
// its process killed); home recovers it from the last snapshot and the
// tour completes from where the checkpoint left off.
func TestCrashRecoveryFromCheckpoint(t *testing.T) {
	s := newSystem(t, "home", "h2", "h3")
	home, _ := s.Node("home")
	n2, _ := s.Node("h2")

	const ckpt = "/ckpt/tour"
	s.DeployWrapper("checkpoint:"+ckpt, func() wrapper.Wrapper {
		return &wrapper.Checkpoint{StoreURI: "tacoma://home//ag_fs", Path: ckpt}
	})

	var mu sync.Mutex
	var visited []string
	finished := make(chan []string, 1)
	crashOnH2 := make(chan struct{}, 1)
	crashOnH2 <- struct{}{} // first h2 visit crashes

	s.DeployProgram("tour", func(ctx *agent.Context) error {
		mu.Lock()
		visited = append(visited, ctx.Host())
		mu.Unlock()
		bc := ctx.Briefcase()
		bc.Ensure("LOG").AppendString("did work on " + ctx.Host())

		if ctx.Host() == "h2" {
			select {
			case <-crashOnH2:
				// Simulated crash: the agent dies without moving on.
				return errors.New("simulated crash on h2")
			default:
			}
		}
		hosts, err := bc.Folder(briefcase.FolderHosts)
		if err != nil {
			return err
		}
		for {
			next, ok := hosts.Pop()
			if !ok {
				mu.Lock()
				v := append([]string(nil), visited...)
				mu.Unlock()
				finished <- v
				return nil
			}
			if err := ctx.Go(next.String()); errors.Is(err, agent.ErrMoved) {
				return err
			}
		}
	})

	bc := briefcase.New()
	bc.Ensure(briefcase.FolderSysWrap).AppendString("checkpoint:" + ckpt)
	bc.Ensure(briefcase.FolderHosts).AppendString(
		"tacoma://h2//vm_go",
		"tacoma://h3//vm_go",
	)
	if _, err := home.VM.Launch("system", "tour", "tour", bc); err != nil {
		t.Fatal(err)
	}

	// Wait for the crash: the agent disappears from h2 without reaching
	// h3.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		crashed := len(visited) >= 2 && visited[len(visited)-1] == "h2"
		mu.Unlock()
		if crashed && len(n2.FW.Lookup(uri.URI{Name: "tour"}, "system")) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("crash never observed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A faulted agent must keep its snapshot — it is exactly what
	// recovery needs (only clean completion prunes).
	if _, err := fetchCheckpoint(t, home, ckpt); err != nil {
		t.Fatalf("crashed agent's snapshot missing: %v", err)
	}

	// A home guard recovers the agent from the snapshot taken before the
	// move to h2: it resumes with h2's work re-done at home... the
	// snapshot was the state *sent to* h2, so the recovered agent replays
	// h2's visit from the recovery host and then continues to h3. The
	// tour sends no beacon reports, so one recovery is the guard's whole
	// budget: report silence afterwards ends it without a relaunch.
	g, err := rearguard.NewGuard(rearguard.Config{
		FW: home.FW,
		Launch: func(p, n, prog string, bc *briefcase.Briefcase) (*firewall.Registration, error) {
			return home.VM.Launch(p, n, prog, bc)
		},
		Program:       "tour",
		Checkpoint:    ckpt,
		MaxRecoveries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	if !g.Resume("crash on h2") {
		t.Fatalf("recover: %v", g.Wait(time.Second))
	}
	select {
	case v := <-finished:
		joined := strings.Join(v, ",")
		// Original run: home, h2 (crash). Recovery: home (replaying the
		// snapshot), h3.
		if !strings.HasPrefix(joined, "home,h2,home") || !strings.HasSuffix(joined, "h3") {
			t.Errorf("visit order = %s", joined)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("recovered tour never finished")
	}
}
