// crashpoint.go is the crash-consistency half of the chaos harness: it
// sweeps the guarded 3-hop itinerary across every write-ahead-log
// boundary of the home host's file cabinet, killing the machine at the
// k-th WAL append (optionally with a torn in-flight write), restarting
// it from durable state, adopting the itinerary with a fresh rear guard,
// and asserting the §4 contract end-to-end: the durably acknowledged
// checkpoint is never lost, a recovered checkpoint is never half
// written, and visit effects stay exactly-once.
package chaostest

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"tax/internal/briefcase"
	"tax/internal/cabinet"
	"tax/internal/core"
	"tax/internal/rearguard"
)

// ckptKey is the checkpoint's key inside the home cabinet (the
// ag_cabinet service prefixes paths with "cab/").
const ckptKey = "cab/" + ckptPath

// CrashPointScenario configures one crash-point sweep. Its Scenario
// supplies the seed, the message faults layered on top of the crash
// (zero runs the sweep on a clean network) and the guard's timeouts;
// the home host restarts as soon as it has crashed, and a guard
// relaunches at most 8 times. Observability has no use here (the sweep
// returns no timeline), and CrashOnArrival adds a stop crash on top of
// the home host's; no sweep in the tree sets either.
type CrashPointScenario struct {
	Scenario
	// Torn additionally tears the WAL's unsynced tail at each crash
	// point: half the in-flight bytes reach the platter, the rest are
	// lost — the classic partially-completed sector write.
	Torn bool
	// FsyncCost and SnapshotEvery configure every node's cabinet (zero
	// takes the cabinet defaults; negative SnapshotEvery disables
	// snapshots). The durability benchmark sweeps them.
	FsyncCost     time.Duration
	SnapshotEvery int
}

// maxCrashPoints bounds a crash-point sweep; the sweep also ends at the
// first run whose k-th append (or pre-sync point) was never reached,
// because the run completed with fewer WAL writes.
const maxCrashPoints = 64

// CrashPoint is the outcome of one run crashed at the k-th WAL append.
type CrashPoint struct {
	// K is the 1-based index of the WAL append that triggered the crash.
	K int
	// Crashed is false when the run finished in fewer than K appends —
	// the sweep's natural end.
	Crashed bool
	// SeqAtCrash is the cabinet sequence number of the triggering append.
	SeqAtCrash uint64
	// RecoveredSeq and RecoveredKeys describe the pure recovery of the
	// post-crash durable bytes (what Reopen replays on restart).
	RecoveredSeq  uint64
	RecoveredKeys int
	// CheckpointDurable reports whether the recovered table held the
	// itinerary checkpoint; CheckpointIntact that it decoded as a
	// well-formed briefcase (a durable checkpoint is one atomic WAL
	// record — recovery must never surface half of one).
	CheckpointDurable bool
	CheckpointIntact  bool
	// CompletedWithoutGuard: every effect was applied and the itinerary
	// durably pruned its own checkpoint, but the done report died with
	// the original guard — the agent (which outlives a home crash; it is
	// on the stops) finished on its own and left the adopting guard
	// nothing to recover.
	CompletedWithoutGuard bool
	// Resumed reports that a fresh guard adopted the itinerary after
	// restart.
	Resumed bool
	// Result is the run's terminal outcome and effect ledger.
	Result Result
	// SnapBytes and WALBytes hold the home cabinet's on-disk files at
	// the end of an uncrashed run — raw material for the every-byte
	// prefix proof.
	SnapBytes, WALBytes []byte
}

// Completed reports whether the itinerary finished — with a done report
// on either guard, or silently (CompletedWithoutGuard).
func (p CrashPoint) Completed() bool {
	return p.Result.Err == nil || p.CompletedWithoutGuard
}

// RunCrashPoints sweeps crash points k = 1, 2, ... until a run
// completes without reaching its k-th WAL append (or maxCrashPoints), and
// returns one CrashPoint per run.
func RunCrashPoints(sc CrashPointScenario) ([]CrashPoint, error) {
	var points []CrashPoint
	for k := 1; k <= maxCrashPoints; k++ {
		p, err := runCrashPoint(sc, k)
		if err != nil {
			return points, err
		}
		points = append(points, p)
		if !p.Crashed {
			break
		}
	}
	return points, nil
}

// runCrashPoint executes one guarded itinerary, crashing the home host
// at its k-th cabinet WAL append.
func runCrashPoint(sc CrashPointScenario, k int) (CrashPoint, error) {
	// Checkpoints go to the durable cabinet, not ag_fs: surviving the
	// home host's own crash is the whole point of this sweep.
	w, err := newWorld(sc.Scenario, 1, "ag_cabinet", core.NodeOptions{
		FsyncCost:     sc.FsyncCost,
		SnapshotEvery: sc.SnapshotEvery,
	})
	if err != nil {
		return CrashPoint{}, err
	}
	defer w.s.Close()
	w.maxRecoveries = 8

	// The append hook decides how the run ends: crashed at the k-th WAL
	// append, or clean once the checkpoint prune, the itinerary's last
	// write, has landed and every append before it has been hooked. The
	// hook runs concurrently on the firewall's park-journal committer and
	// on ag_cabinet's, and Store.commit applies before it hooks, so the
	// decision is made under mu by counting hooked appends against the
	// store's sequence: a hook that merely sees the prune applied may be
	// racing the k-th.
	point := CrashPoint{K: k}
	end := make(chan bool, 1) // true: crashed
	var mu sync.Mutex
	var appends uint64
	var sawCkpt, decided bool
	cab, disk := w.home.Cabinet, w.home.Disk
	seq0 := cab.Seq()
	cab.SetAppendHook(func(seq uint64) {
		mu.Lock()
		appends++
		_, ckpt := cab.Get(ckptKey)
		sawCkpt = sawCkpt || ckpt
		crash := !decided && appends == uint64(k)
		clean := !decided && !crash && sawCkpt && !ckpt && appends == cab.Seq()-seq0
		decided = decided || crash || clean
		mu.Unlock()
		if clean {
			end <- false
		}
		if !crash {
			return
		}
		// The power cut, outside mu: crashing takes the firewall's lock,
		// which a park-journal committer waiting on mu holds. Torn mode
		// tears the in-flight tail first; the durable bytes are then
		// frozen for the pure-recovery invariants.
		if sc.Torn {
			durable, _ := disk.DurableBytes("wal")
			live, _ := disk.ReadFile("wal")
			if tail := len(live) - len(durable); tail > 0 {
				disk.Crash(cabinet.TornWrite{File: "wal", Keep: (tail + 1) / 2})
			}
		}
		w.s.Net.Crash(home)
		snapB, _ := disk.DurableBytes("snap")
		walB, _ := disk.DurableBytes("wal")
		table, rseq, _ := cabinet.RecoverBytes(snapB, walB)
		point.SeqAtCrash = seq
		point.RecoveredSeq = rseq
		point.RecoveredKeys = len(table)
		if raw, ok := table[ckptKey]; ok {
			point.CheckpointDurable = true
			if _, err := briefcase.Decode(raw); err == nil {
				point.CheckpointIntact = true
			}
		}
		end <- true
	})

	guard, err := w.guard(0)
	if err != nil {
		return CrashPoint{}, err
	}
	defer guard.Close()
	if _, err := guard.Launch(w.briefcase(0)); err != nil {
		return CrashPoint{}, err
	}
	// A run no hook has decided also ends, uncrashed, when the first
	// guard fails or at WaitTimeout. finish claims that end under mu, so
	// no hook still in flight can crash home afterwards.
	finish := func() {
		mu.Lock()
		undecided := !decided
		decided = true
		mu.Unlock()
		if undecided {
			end <- false
		}
	}
	defer time.AfterFunc(w.sc.WaitTimeout, finish).Stop()
	// The first guard goes to its waiter by value: guard is reassigned
	// below to the adopting guard while that Wait may still be running.
	g1done := make(chan error, 1)
	go func(g1 *rearguard.Guard) {
		err := g1.Wait(w.sc.WaitTimeout)
		g1done <- err
		if err != nil {
			finish()
		}
	}(guard)
	point.Crashed = <-end

	var waitErr error
	if !point.Crashed {
		cab.SetAppendHook(nil)
		waitErr = <-g1done
		point.SnapBytes, _ = disk.ReadFile("snap")
		point.WALBytes, _ = disk.ReadFile("wal")
	} else {
		w.s.Net.Restart(home)
		// The crash killed the first guard's registration, so its Wait
		// has returned or is about to. A guard killed mid-crash is not an
		// outcome, it is the crash: a fresh guard adopts the itinerary
		// from the durable checkpoint. Only a done report that beat the
		// crash counts as completion.
		if waitErr = <-g1done; waitErr != nil {
			if guard, err = w.guard(0); err != nil {
				return CrashPoint{}, err
			}
			defer guard.Close()
			point.Resumed = true
			guard.Resume("home host restarted at WAL append " + strconv.Itoa(k))
			waitErr = guard.Wait(w.sc.WaitTimeout)
		}
	}
	point.Result = w.result(0, guard, waitErr)

	// Recovery failing with every effect applied means the itinerary
	// finished on its own and durably pruned its checkpoint before the
	// adopting guard could read it — completion, minus the report.
	if point.Crashed && waitErr != nil && errors.Is(waitErr, rearguard.ErrRecoveryFailed) {
		full := true
		for _, stop := range Stops {
			if point.Result.Effects[stop] != 1 {
				full = false
			}
		}
		point.CompletedWithoutGuard = full
	}
	return point, nil
}
