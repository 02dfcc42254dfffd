// crashpoint_group.go extends the crash-point harness to WAL group
// commit. The single-commit sweep (crashpoint.go) kills the host after a
// synced append; group commit opens a new window the old sweep cannot
// reach — a record is in the log but the *shared* fsync covering it and
// its batch-mates has not happened. This sweep crashes the disk inside
// that window, at the k-th pre-sync point, with N concurrent committers
// racing, and proves the §4 durability contract batch-wide: a Commit
// that returned nil is fully recoverable, and every recovered record is
// whole — coalescing shares fsyncs, never atomicity.
package chaostest

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tax/internal/cabinet"
	"tax/internal/vclock"
)

// GroupCrashScenario configures one group-commit crash-point sweep.
type GroupCrashScenario struct {
	// Committers is the number of concurrent Commit goroutines
	// (default 8); TxnsPer is how many single-key transactions each
	// commits (default 4).
	Committers, TxnsPer int
	// GroupMaxTxns bounds the coalesce window (zero: cabinet default).
	GroupMaxTxns int
	// Torn additionally tears the WAL's unsynced tail at the crash:
	// half the in-flight bytes reach the platter, the rest are lost.
	Torn bool
	// FsyncCost prices each shared fsync on the virtual clock.
	FsyncCost time.Duration
}

// GroupCrashPoint is the outcome of one run crashed at the k-th
// pre-sync point (after the k-th WAL append of the run, before the
// shared fsync that would cover it).
type GroupCrashPoint struct {
	// K is the 1-based index of the pre-sync point that triggered the
	// crash; Crashed is false when the run finished in fewer appends.
	K       int
	Crashed bool
	// SeqAtCrash is the sequence number of the triggering append.
	SeqAtCrash uint64
	// Acked / Failed partition the committers' transactions by whether
	// Commit returned nil.
	Acked, Failed int
	// RecoveredKeys counts the keys recovery rebuilt from durable bytes.
	RecoveredKeys int
	// Lost are keys whose Commit returned nil but which recovery could
	// not reproduce intact — the durability contract broken. Corrupt are
	// recovered keys whose value does not match what was committed —
	// batch atomicity broken. Both must always be empty.
	Lost, Corrupt []string
	// SnapBytes and WALBytes are the durable images at the crash, raw
	// material for the every-byte-prefix proof.
	SnapBytes, WALBytes []byte
}

// gcKey and gcValue are the sweep's deterministic workload: the value is
// derived from the key, so recovery checks verify whole-record
// integrity, not mere presence.
func gcKey(g, i int) string { return fmt.Sprintf("gc/%d/%d", g, i) }

func gcValue(key string) []byte {
	return bytes.Repeat([]byte("v:"+key+";"), 3)
}

// RunGroupCrashPoints sweeps crash points k = 1, 2, ... until a run
// completes without reaching its k-th pre-sync point (or maxCrashPoints),
// returning one GroupCrashPoint per run.
func RunGroupCrashPoints(sc GroupCrashScenario) []GroupCrashPoint {
	if sc.Committers <= 0 {
		sc.Committers = 8
	}
	if sc.TxnsPer <= 0 {
		sc.TxnsPer = 4
	}
	var points []GroupCrashPoint
	for k := 1; k <= maxCrashPoints; k++ {
		p := runGroupCrashPoint(sc, k)
		points = append(points, p)
		if !p.Crashed {
			break
		}
	}
	return points
}

// runGroupCrashPoint runs one concurrent group-commit workload, crashing
// the disk at the k-th pre-sync point — between a coalesced WAL append
// and the shared fsync that would make it durable.
func runGroupCrashPoint(sc GroupCrashScenario, k int) GroupCrashPoint {
	clock := vclock.NewVirtual()
	store := cabinet.NewStore(cabinet.Options{
		Clock:         clock,
		FsyncCost:     sc.FsyncCost,
		SnapshotEvery: -1, // keep the full history in the WAL for the prefix proof
		GroupCommit:   true,
		GroupMaxTxns:  sc.GroupMaxTxns,
	})
	disk := store.Disk()

	point := GroupCrashPoint{K: k}
	var presyncs int32
	store.SetPreSyncHook(func(seq uint64) {
		if atomic.AddInt32(&presyncs, 1) != int32(k) {
			return
		}
		// The power cut: the k-th record sits in the page cache with its
		// shared fsync still pending. The hook runs under the store lock,
		// so the crash lands at an exact protocol point even with every
		// committer racing.
		point.SeqAtCrash = seq
		if sc.Torn {
			durable, _ := disk.DurableBytes("wal")
			live, _ := disk.ReadFile("wal")
			if tail := len(live) - len(durable); tail > 0 {
				disk.Crash(cabinet.TornWrite{File: "wal", Keep: (tail + 1) / 2})
				return
			}
		}
		disk.Crash()
	})

	var (
		mu    sync.Mutex
		acked []string
	)
	var failed int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < sc.Committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < sc.TxnsPer; i++ {
				key := gcKey(g, i)
				err := store.Commit([]cabinet.Op{{Key: key, Value: gcValue(key)}})
				if err != nil {
					atomic.AddInt32(&failed, 1)
					return // a committer stops at its first error, like a dead host
				}
				mu.Lock()
				acked = append(acked, key)
				mu.Unlock()
			}
		}(g)
	}
	close(start)
	wg.Wait()

	point.Crashed = atomic.LoadInt32(&presyncs) >= int32(k)
	point.Acked = len(acked)
	point.Failed = int(failed)
	point.SnapBytes, _ = disk.DurableBytes("snap")
	point.WALBytes, _ = disk.DurableBytes("wal")

	table, _, _ := cabinet.RecoverBytes(point.SnapBytes, point.WALBytes)
	point.RecoveredKeys = len(table)
	// Durability: every acked transaction recovers whole.
	for _, key := range acked {
		if v, ok := table[key]; !ok || !bytes.Equal(v, gcValue(key)) {
			point.Lost = append(point.Lost, key)
		}
	}
	// Atomicity: every recovered record is exactly what was committed —
	// a torn batch must surface as cleanly absent records, never as a
	// half-written value.
	for key, v := range table {
		if !bytes.Equal(v, gcValue(key)) {
			point.Corrupt = append(point.Corrupt, key)
		}
	}
	return point
}
