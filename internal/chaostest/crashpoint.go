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
	"sync/atomic"
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
// MaxRecoveries defaults to 8 and RestartDelay, how long the home host
// stays down, to 50ms. Observability has no use here (the sweep returns
// no timeline), and CrashOnArrival adds a stop crash on top of the
// home host's; no sweep in the tree sets either.
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
	// MaxPoints bounds the sweep (default 64); the sweep also ends at
	// the first run whose k-th append was never reached, because the
	// itinerary completed with fewer WAL writes.
	MaxPoints int
}

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
// completes without reaching its k-th WAL append (or MaxPoints), and
// returns one CrashPoint per run.
func RunCrashPoints(sc CrashPointScenario) ([]CrashPoint, error) {
	if sc.MaxPoints <= 0 {
		sc.MaxPoints = 64
	}
	var points []CrashPoint
	for k := 1; k <= sc.MaxPoints; k++ {
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
	if sc.MaxRecoveries <= 0 {
		sc.MaxRecoveries = 8
	}
	if sc.RestartDelay <= 0 {
		sc.RestartDelay = 50 * time.Millisecond
	}
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

	// The crash trigger: the k-th WAL append on the home cabinet tears
	// the in-flight tail (Torn mode), kills the machine, and freezes the
	// durable bytes for the pure-recovery invariants. The hook runs on
	// the committing goroutine, outside the store lock — exactly where a
	// power cut lands.
	point := CrashPoint{K: k}
	crashed := make(chan struct{})
	var appends int32
	disk := w.home.Disk
	w.home.Cabinet.SetAppendHook(func(seq uint64) {
		if atomic.AddInt32(&appends, 1) != int32(k) {
			return
		}
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
		close(crashed)
	})

	guard, err := w.guard(0)
	if err != nil {
		return CrashPoint{}, err
	}
	defer guard.Close()
	if _, err := guard.Launch(w.briefcase(0)); err != nil {
		return CrashPoint{}, err
	}
	// The first guard goes to its waiter by value: guard is reassigned
	// below to the adopting guard while that Wait may still be running.
	g1done := make(chan error, 1)
	go func(g1 *rearguard.Guard) { g1done <- g1.Wait(w.sc.WaitTimeout) }(guard)

	var waitErr error
	g1Done := false
	select {
	case waitErr = <-g1done:
		g1Done = true
	case <-crashed:
	}
	// The crash can also land in trailing traffic after the done report
	// (the checkpoint prune writes one more record); give it a moment so
	// the sweep records the crash rather than replaying the same clean
	// run forever.
	select {
	case <-crashed:
		point.Crashed = true
	case <-time.After(100 * time.Millisecond):
	}

	if !point.Crashed {
		w.home.Cabinet.SetAppendHook(nil)
		point.SnapBytes, _ = disk.ReadFile("snap")
		point.WALBytes, _ = disk.ReadFile("wal")
	} else {
		time.Sleep(sc.RestartDelay)
		w.s.Net.Restart(home)
		if !g1Done {
			select {
			case waitErr = <-g1done:
				g1Done = true
			default:
			}
		}
		// A guard killed mid-crash is not an outcome, it is the crash: a
		// fresh guard adopts the itinerary from the durable checkpoint.
		// Only a done report that beat the crash counts as completion.
		if !g1Done || waitErr != nil {
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
