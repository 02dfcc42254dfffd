package cabinet

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tax/internal/telemetry"
	"tax/internal/vclock"
)

// gcTestValue derives a deterministic value from its key so durability
// checks can verify full-record integrity, not just presence.
func gcTestValue(key string) []byte {
	return bytes.Repeat([]byte(key+"|"), 4)
}

// TestGroupCommitDurableBeforeReturn is the group-commit contract under
// -race: N concurrent committers, and the instant any Commit returns nil
// its record is recoverable from the disk's durable bytes alone. No
// caller may observe success before the fsync covering its record.
func TestGroupCommitDurableBeforeReturn(t *testing.T) {
	clock := vclock.NewVirtual()
	s := NewStore(Options{Clock: clock, SnapshotEvery: -1, GroupCommit: true})
	disk := s.Disk()

	const goroutines, perG = 16, 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("gc/%d/%d", g, i)
				if err := s.Commit([]Op{{Key: key, Value: gcTestValue(key)}}); err != nil {
					errs <- fmt.Errorf("commit %s: %w", key, err)
					return
				}
				// The durable image must already hold the record: this is
				// what "returns only once durable" means, checked from a
				// racing goroutine with no store locks held.
				walB, _ := disk.DurableBytes(walFile)
				snapB, _ := disk.DurableBytes(snapFile)
				table, _, err := RecoverBytes(snapB, walB)
				if err != nil {
					errs <- fmt.Errorf("recover after %s: %w", key, err)
					return
				}
				if got, ok := table[key]; !ok || !bytes.Equal(got, gcTestValue(key)) {
					errs <- fmt.Errorf("commit %s returned before durable (present=%v)", key, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.Len(); got != goroutines*perG {
		t.Fatalf("table has %d entries, want %d", got, goroutines*perG)
	}
	if got := s.Seq(); got != goroutines*perG {
		t.Fatalf("seq = %d, want %d", got, goroutines*perG)
	}
}

// TestGroupCommitCrashPointCoalesces proves the point of the exercise:
// concurrent committers share fsyncs, so cabinet.fsyncs lands strictly
// below the transaction count. A real sleep in the pre-sync hook during
// the first batch holds the leader in place while every other goroutine
// enqueues, so coalescing is guaranteed rather than probabilistic.
func TestGroupCommitCrashPointCoalesces(t *testing.T) {
	reg := telemetry.NewRegistry()
	clock := vclock.NewVirtual()
	s := NewStore(Options{
		Clock:         clock,
		SnapshotEvery: -1,
		GroupCommit:   true,
		Telemetry:     reg,
		Host:          "h",
	})
	var first int32
	s.SetPreSyncHook(func(uint64) {
		if atomic.CompareAndSwapInt32(&first, 0, 1) {
			time.Sleep(2 * time.Millisecond)
		}
	})

	const txns = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < txns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			key := fmt.Sprintf("co/%d", g)
			if err := s.Commit([]Op{{Key: key, Value: gcTestValue(key)}}); err != nil {
				t.Errorf("commit %s: %v", key, err)
			}
		}(g)
	}
	close(start)
	wg.Wait()

	fsyncs := reg.Counter("cabinet.fsyncs", "host", "h").Value()
	appends := reg.Counter("cabinet.wal_appends", "host", "h").Value()
	if appends != txns {
		t.Fatalf("wal_appends = %d, want %d", appends, txns)
	}
	if fsyncs >= txns {
		t.Fatalf("fsyncs = %d, want < %d: no coalescing happened", fsyncs, txns)
	}
	if fsyncs < 1 {
		t.Fatalf("fsyncs = %d, want >= 1", fsyncs)
	}
	t.Logf("%d txns coalesced into %d fsyncs", txns, fsyncs)
}

// TestGroupCommitSequentialDegenerates: a single-writer workload on a
// group-commit store pays exactly one fsync per transaction — group
// commit never slows down or re-orders an uncontended committer.
func TestGroupCommitSequentialDegenerates(t *testing.T) {
	clock := vclock.NewVirtual()
	s := NewStore(Options{Clock: clock, SnapshotEvery: -1, GroupCommit: true})
	disk := s.Disk()
	const txns = 10
	for i := 0; i < txns; i++ {
		key := fmt.Sprintf("seq/%d", i)
		if err := s.Commit([]Op{{Key: key, Value: gcTestValue(key)}}); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if got := disk.Syncs(); got != txns {
		t.Fatalf("sequential group commit did %d fsyncs for %d txns", got, txns)
	}
	if got := s.Seq(); got != txns {
		t.Fatalf("seq = %d, want %d", got, txns)
	}
}

// TestGroupCommitMaxTxnsBound: the coalesce window is bounded — a burst
// larger than GroupMaxTxns splits into multiple fsyncs, proven exactly
// with CommitMany's deterministic batch formation.
func TestGroupCommitMaxTxnsBound(t *testing.T) {
	clock := vclock.NewVirtual()
	s := NewStore(Options{Clock: clock, SnapshotEvery: -1, GroupCommit: true, GroupMaxTxns: 64})
	disk := s.Disk()
	txns := make([][]Op, 130)
	for i := range txns {
		key := fmt.Sprintf("many/%03d", i)
		txns[i] = []Op{{Key: key, Value: gcTestValue(key)}}
	}
	if err := s.CommitMany(txns); err != nil {
		t.Fatalf("CommitMany: %v", err)
	}
	// ceil(130/64) = 3 shared fsyncs (snapshots are off, so every sync is
	// a WAL sync).
	if got := disk.Syncs(); got != 3 {
		t.Fatalf("CommitMany of 130 txns did %d fsyncs, want 3", got)
	}
	if got := s.Seq(); got != 130 {
		t.Fatalf("seq = %d, want 130", got)
	}
	for i := range txns {
		key := fmt.Sprintf("many/%03d", i)
		if v, ok := s.Get(key); !ok || !bytes.Equal(v, gcTestValue(key)) {
			t.Fatalf("key %s missing or wrong after CommitMany", key)
		}
	}
	// Every transaction is its own WAL record: recovery of the durable
	// bytes rebuilds all 130 keys.
	walB, _ := disk.DurableBytes(walFile)
	table, seq, _ := RecoverBytes(nil, walB)
	if len(table) != 130 || seq != 130 {
		t.Fatalf("recovered %d keys seq %d, want 130/130", len(table), seq)
	}
}

// TestGroupCommitWindowSweep prices one 192-transaction stream under
// three coalesce windows on the virtual clock: window w costs
// ceil(192/w) fsyncs (192, 24, 3) at the default half-millisecond sync,
// 96, 12 and 1.5 ms of write time.
func TestGroupCommitWindowSweep(t *testing.T) {
	for _, c := range []struct {
		window int
		fsyncs int64
		cost   time.Duration
	}{{1, 192, 96 * time.Millisecond}, {8, 24, 12 * time.Millisecond}, {64, 3, 1500 * time.Microsecond}} {
		clock := vclock.NewVirtual()
		s := NewStore(Options{Clock: clock, SnapshotEvery: -1, GroupCommit: true, GroupMaxTxns: c.window})
		txns := make([][]Op, 192)
		for i := range txns {
			key := fmt.Sprintf("gc/%03d", i)
			txns[i] = []Op{{Key: key, Value: gcTestValue(key)}}
		}
		start := clock.Now()
		if err := s.CommitMany(txns); err != nil {
			t.Fatalf("window %d: %v", c.window, err)
		}
		if got, cost := s.Disk().Syncs(), clock.Now()-start; got != c.fsyncs || cost != c.cost {
			t.Errorf("window %d: %d fsyncs in %v, want %d in %v", c.window, got, cost, c.fsyncs, c.cost)
		}
	}
}

// TestGroupCommitCrashFailsWaiters: once the disk is down, concurrent
// group commits all fail with ErrCrashed — no waiter hangs, none reports
// success.
func TestGroupCommitCrashFailsWaiters(t *testing.T) {
	clock := vclock.NewVirtual()
	s := NewStore(Options{Clock: clock, SnapshotEvery: -1, GroupCommit: true})
	s.Disk().Crash()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			err := s.Commit([]Op{{Key: fmt.Sprintf("x/%d", g), Value: []byte("v")}})
			if !errors.Is(err, ErrCrashed) {
				t.Errorf("commit on crashed disk: err = %v, want ErrCrashed", err)
			}
		}(g)
	}
	wg.Wait()
	if got := s.Seq(); got != 0 {
		t.Fatalf("seq advanced to %d on a crashed disk", got)
	}
}

// TestGroupCommitRecoveryMatchesTable: after a concurrent group-commit
// workload with snapshots enabled, pure recovery of the durable bytes
// reproduces the live table exactly.
func TestGroupCommitRecoveryMatchesTable(t *testing.T) {
	clock := vclock.NewVirtual()
	s := NewStore(Options{Clock: clock, SnapshotEvery: 16, GroupCommit: true})
	disk := s.Disk()
	const goroutines, perG = 8, 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("rm/%d/%d", g, i)
				if err := s.Commit([]Op{{Key: key, Value: gcTestValue(key)}}); err != nil {
					t.Errorf("commit %s: %v", key, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	snapB, _ := disk.DurableBytes(snapFile)
	walB, _ := disk.DurableBytes(walFile)
	table, seq, err := RecoverBytes(snapB, walB)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if seq != goroutines*perG {
		t.Fatalf("recovered seq %d, want %d", seq, goroutines*perG)
	}
	if len(table) != goroutines*perG {
		t.Fatalf("recovered %d keys, want %d", len(table), goroutines*perG)
	}
	for key, v := range table {
		if !bytes.Equal(v, gcTestValue(key)) {
			t.Fatalf("recovered value for %s does not match what was committed", key)
		}
	}
}
