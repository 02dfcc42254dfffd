package chaostest

import (
	"bytes"
	"testing"

	"tax/internal/cabinet"
)

// assertGroupCrashPoints applies the group-commit durability contract to
// a sweep: at every crash point, every acked transaction is recoverable
// intact, every recovered record is whole, and the sweep actually
// exercised the append-to-shared-fsync window with coalesced batches.
func assertGroupCrashPoints(t *testing.T, points []GroupCrashPoint) {
	t.Helper()
	if len(points) < 2 {
		t.Fatalf("sweep exercised only %d crash points", len(points))
	}
	crashes := 0
	for _, p := range points {
		if !p.Crashed {
			continue
		}
		crashes++
		if p.Failed == 0 {
			t.Errorf("k=%d: crash failed no committer — the crash landed outside the workload", p.K)
		}
		for _, key := range p.Lost {
			t.Errorf("k=%d: Commit(%s) returned nil but the record did not survive recovery", p.K, key)
		}
		for _, key := range p.Corrupt {
			t.Errorf("k=%d: recovered record %s is not what was committed (partial batch surfaced)", p.K, key)
		}
	}
	if crashes == 0 {
		t.Fatal("sweep never crashed: the pre-sync hook is not firing")
	}
	if last := points[len(points)-1]; last.Crashed {
		t.Logf("sweep stopped at maxCrashPoints with k=%d still crashing", last.K)
	}
}

// TestGroupCommitCrashPointSweep crashes the disk at every pre-sync
// point of a concurrent group-commit workload — after the k-th WAL
// append, before the shared fsync that would cover it — and asserts at
// each point that no acked transaction is lost and no recovered record
// is partial. This is the window plain per-commit crash points cannot
// reach: records of a coalesced batch sit in the page cache together.
func TestGroupCommitCrashPointSweep(t *testing.T) {
	assertGroupCrashPoints(t, RunGroupCrashPoints(GroupCrashScenario{}))
}

// TestGroupCommitCrashPointSweepTorn repeats the sweep with torn
// in-flight writes: at each crash half the unsynced WAL tail — which
// under group commit holds several coalesced records — reaches the
// platter. Recovery must cut the log at the last whole record; a torn
// batch surfaces as cleanly absent transactions, never corrupt ones.
func TestGroupCommitCrashPointSweepTorn(t *testing.T) {
	assertGroupCrashPoints(t, RunGroupCrashPoints(GroupCrashScenario{Torn: true}))
}

// TestGroupCommitCrashPointSmallWindow narrows the coalesce window to 2
// transactions per fsync, forcing many small batches so crash points
// land on every position within a batch (first append, last append
// before the shared sync).
func TestGroupCommitCrashPointSmallWindow(t *testing.T) {
	assertGroupCrashPoints(t, RunGroupCrashPoints(GroupCrashScenario{
		GroupMaxTxns: 2,
		Torn:         true,
	}))
}

// TestGroupCommitCrashPointEveryBytePrefix is the exhaustive mid-record
// proof on a group-committed log: one clean concurrent run writes a WAL
// whose records were made durable by shared fsyncs, then pure recovery
// is evaluated at every byte-length prefix — every batch boundary, every
// record boundary, and every torn cut inside every record. Recovery must
// be total, monotone in sequence, deterministic, and every recovered
// record must be exactly what a committer wrote.
func TestGroupCommitCrashPointEveryBytePrefix(t *testing.T) {
	p := runGroupCrashPoint(GroupCrashScenario{Committers: 8, TxnsPer: 8}, 1<<30)
	if p.Crashed {
		t.Fatal("harvest run crashed: k was supposed to be unreachable")
	}
	if len(p.Lost) > 0 || p.Failed > 0 {
		t.Fatalf("harvest run lost transactions: lost=%v failed=%d", p.Lost, p.Failed)
	}
	if len(p.WALBytes) == 0 {
		t.Fatal("harvest run wrote no WAL")
	}
	var prevSeq uint64
	var prevKeys int
	for cut := 0; cut <= len(p.WALBytes); cut++ {
		table, seq, err := cabinet.RecoverBytes(p.SnapBytes, p.WALBytes[:cut])
		if err != nil {
			t.Fatalf("cut %d: recovery not total: %v", cut, err)
		}
		if seq < prevSeq {
			t.Fatalf("cut %d: recovered seq regressed %d -> %d", cut, prevSeq, seq)
		}
		// This workload only inserts, one key per txn: each longer prefix
		// recovers a superset.
		if len(table) < prevKeys {
			t.Fatalf("cut %d: recovered keys regressed %d -> %d", cut, prevKeys, len(table))
		}
		prevSeq, prevKeys = seq, len(table)
		for key, v := range table {
			if !bytes.Equal(v, gcValue(key)) {
				t.Fatalf("cut %d: recovered record %s is partial or corrupt", cut, key)
			}
		}
	}
	if prevKeys != 64 {
		t.Fatalf("full log recovered %d keys, want 64", prevKeys)
	}
}
