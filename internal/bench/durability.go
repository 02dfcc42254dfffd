package bench

import (
	"fmt"
	"time"

	"tax/internal/cabinet"
	"tax/internal/chaostest"
	"tax/internal/vclock"
)

// DurabilityResult is one (snapshot interval, fsync cost) point of the
// durability sweep, in machine-readable form for BENCH_durability.json.
// Every field is computed on the virtual clock or from seeded runs, so
// the JSON is byte-identical run to run.
type DurabilityResult struct {
	// SnapshotEvery is the cabinet's compaction interval in committed
	// transactions.
	SnapshotEvery int `json:"snapshot_every"`
	// FsyncUS is the per-fsync latency in virtual microseconds.
	FsyncUS int64 `json:"fsync_us"`

	// Store-level measurements: a deterministic workload of Txns
	// committed transactions, then a crash and a recovery.
	//
	// Txns is the workload size; WALBytes and SnapBytes are the durable
	// on-disk footprint at the crash; RecoveredKeys the table rebuilt by
	// Reopen.
	Txns          int `json:"txns"`
	WALBytes      int `json:"wal_bytes"`
	SnapBytes     int `json:"snap_bytes"`
	RecoveredKeys int `json:"recovered_keys"`
	// WriteCostMS is the virtual-clock cost of committing the workload
	// (the price of durability on the write path).
	WriteCostMS float64 `json:"write_cost_ms"`
	// RecoveryUS is the virtual-clock cost of Reopen after the crash
	// (the recovery-latency signal: snapshotting trades write-path
	// fsyncs for a shorter WAL to replay).
	RecoveryUS float64 `json:"recovery_us"`

	// End-to-end measurements: a crash-point sweep of the guarded 3-hop
	// itinerary with this cabinet configuration.
	//
	// CrashRuns is the number of runs in the sweep, Crashes how many of
	// them actually crashed the home host, Completed how many finished
	// the itinerary, ExactlyOnce how many kept every visit effect
	// exactly-once.
	CrashRuns   int `json:"crash_runs"`
	Crashes     int `json:"crashes"`
	Completed   int `json:"completed"`
	ExactlyOnce int `json:"exactly_once"`
}

// DurabilityGroupResult is one coalesce-window point of the durability
// sweep's group-commit section: the same transaction stream as the
// per-commit grid, committed through CommitMany so every batch of up to
// GroupMax transactions shares one fsync. The crash columns come from
// the group-commit crash-point sweep (chaostest.RunGroupCrashPoints),
// which crashes the disk between a coalesced append and its shared
// fsync; only its invariant outcomes are recorded — lost or corrupt
// counts are scheduling-independent (always zero when the contract
// holds), while per-run ack counts are not.
type DurabilityGroupResult struct {
	// GroupMax is the coalesce window (transactions per shared fsync).
	GroupMax int `json:"group_max"`
	// FsyncUS is the per-fsync latency in virtual microseconds.
	FsyncUS int64 `json:"fsync_us"`
	// Txns is the workload size; Fsyncs the disk's fsync count for it.
	Txns   int   `json:"txns"`
	Fsyncs int64 `json:"fsyncs"`
	// FsyncsPerTxn is Fsyncs over Txns — the amortization group commit
	// buys at this window.
	FsyncsPerTxn float64 `json:"fsyncs_per_txn"`
	// WriteCostMS is the virtual-clock cost of committing the stream.
	WriteCostMS float64 `json:"write_cost_ms"`
	// WALBytes is the durable WAL footprint; RecoveredKeys the table a
	// fresh recovery rebuilds from it (identical across windows:
	// coalescing shares fsyncs, not semantics).
	WALBytes      int `json:"wal_bytes"`
	RecoveredKeys int `json:"recovered_keys"`
	// CrashPoints is the size of the group-commit crash-point sweep at
	// this configuration; CrashLost and CrashCorrupt total the acked-
	// but-unrecoverable and partially-recovered records across it. Both
	// must be zero: a coalesced batch is durable-or-absent per caller.
	CrashPoints  int `json:"crash_points"`
	CrashLost    int `json:"crash_lost"`
	CrashCorrupt int `json:"crash_corrupt"`
}

// durabilityWorkload commits a fixed, deterministic transaction stream:
// cycling keys, value sizes varying with the index, every 16th a delete.
func durabilityWorkload(st *cabinet.Store, txns int) error {
	for i := 0; i < txns; i++ {
		key := fmt.Sprintf("k/%02d", i%64)
		if i%16 == 15 {
			if err := st.Delete(key); err != nil {
				return err
			}
			continue
		}
		v := make([]byte, 64+(i*7)%192)
		for j := range v {
			v[j] = byte(i + j)
		}
		if err := st.Put(key, v); err != nil {
			return err
		}
	}
	return nil
}

// durabilityStream is durabilityWorkload as explicit transactions, for
// CommitMany: the same keys, values and deletes, one op per txn.
func durabilityStream(txns int) [][]cabinet.Op {
	stream := make([][]cabinet.Op, txns)
	for i := 0; i < txns; i++ {
		key := fmt.Sprintf("k/%02d", i%64)
		if i%16 == 15 {
			stream[i] = []cabinet.Op{{Del: true, Key: key}}
			continue
		}
		v := make([]byte, 64+(i*7)%192)
		for j := range v {
			v[j] = byte(i + j)
		}
		stream[i] = []cabinet.Op{{Key: key, Value: v}}
	}
	return stream
}

// durabilityGroup measures one (coalesce window, fsync cost) point:
// commit the standard stream through CommitMany, then run the
// group-commit crash-point sweep at the same configuration.
func durabilityGroup(groupMax int, fs time.Duration) (DurabilityGroupResult, error) {
	const txns = 509
	r := DurabilityGroupResult{GroupMax: groupMax, FsyncUS: fs.Microseconds(), Txns: txns}

	clock := vclock.NewVirtual()
	disk := cabinet.NewDisk(cabinet.DiskConfig{Clock: clock, SyncLatency: fs})
	st := cabinet.NewStore(cabinet.Options{
		Clock:         clock,
		Disk:          disk,
		FsyncCost:     fs,
		SnapshotEvery: -1, // pure WAL: every fsync below is a commit fsync
		GroupCommit:   true,
		GroupMaxTxns:  groupMax,
	})
	if err := st.CommitMany(durabilityStream(txns)); err != nil {
		return r, err
	}
	r.WriteCostMS = float64(clock.Now().Microseconds()) / 1000
	r.Fsyncs = disk.Syncs()
	r.FsyncsPerTxn = float64(r.Fsyncs) / float64(txns)
	disk.Crash()
	if b, ok := disk.DurableBytes("wal"); ok {
		r.WALBytes = len(b)
	}
	if _, err := st.Reopen(); err != nil {
		return r, err
	}
	r.RecoveredKeys = st.Len()

	points := chaostest.RunGroupCrashPoints(chaostest.GroupCrashScenario{
		GroupMaxTxns: groupMax,
		FsyncCost:    fs,
	})
	r.CrashPoints = len(points)
	for _, p := range points {
		r.CrashLost += len(p.Lost)
		r.CrashCorrupt += len(p.Corrupt)
	}
	return r, nil
}

// Durability sweeps the cabinet's two durability knobs — snapshot
// interval and fsync cost — against (a) a store-level crash/recovery
// cycle measured on the virtual clock and (b) the end-to-end crash-point
// sweep of the guarded itinerary. The trade the paper's file cabinets
// buy into, in numbers: frequent snapshots cost write-path fsyncs but
// bound the WAL replay; slow fsyncs price every committed promise.
// Everything is seeded and virtual-clock driven, so reruns produce
// identical results. The document's group_commit section is the same
// stream committed through coalesced batches, fsyncs amortized across
// each window, plus its crash-point invariants.
func Durability() (*Table, any, error) {
	intervals := []int{4, 32, 256}
	fsyncs := []time.Duration{100 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond}
	// 509 is deliberately not a multiple of any snapshot interval, so
	// the crash lands with a live WAL tail past the last compaction.
	const txns = 509

	var results []DurabilityResult
	for gi, interval := range intervals {
		for gj, fs := range fsyncs {
			r := DurabilityResult{
				SnapshotEvery: interval,
				FsyncUS:       fs.Microseconds(),
				Txns:          txns,
			}

			clock := vclock.NewVirtual()
			disk := cabinet.NewDisk(cabinet.DiskConfig{Clock: clock, SyncLatency: fs})
			st := cabinet.NewStore(cabinet.Options{
				Clock:         clock,
				Disk:          disk,
				FsyncCost:     fs,
				SnapshotEvery: interval,
			})
			if err := durabilityWorkload(st, txns); err != nil {
				return nil, nil, err
			}
			r.WriteCostMS = float64(clock.Now().Microseconds()) / 1000
			disk.Crash()
			if b, ok := disk.DurableBytes("wal"); ok {
				r.WALBytes = len(b)
			}
			if b, ok := disk.DurableBytes("snap"); ok {
				r.SnapBytes = len(b)
			}
			recoverStart := clock.Now()
			if _, err := st.Reopen(); err != nil {
				return nil, nil, err
			}
			r.RecoveryUS = float64((clock.Now() - recoverStart).Nanoseconds()) / 1000
			r.RecoveredKeys = st.Len()

			points, err := chaostest.RunCrashPoints(chaostest.CrashPointScenario{
				Scenario:      chaostest.Scenario{Seed: int64(100 + 10*gi + gj)},
				FsyncCost:     fs,
				SnapshotEvery: interval,
			})
			if err != nil {
				return nil, nil, err
			}
			r.CrashRuns = len(points)
			for _, p := range points {
				if p.Crashed {
					r.Crashes++
				}
				if p.Completed() {
					r.Completed++
				}
				if _, ok := p.Result.ExactlyOnce(); ok {
					r.ExactlyOnce++
				}
			}
			results = append(results, r)
		}
	}

	var group []DurabilityGroupResult
	for _, groupMax := range []int{1, 8, 64} {
		for _, fs := range fsyncs {
			g, err := durabilityGroup(groupMax, fs)
			if err != nil {
				return nil, nil, err
			}
			group = append(group, g)
		}
	}

	t := &Table{
		Title:  "DURABILITY",
		Note:   "file-cabinet crash/recovery vs snapshot interval and fsync cost (virtual-clock costs; crash-point sweep of the guarded 3-hop itinerary); 'group N' rows: WAL group commit at coalesce window N, fsyncs amortized per txn, crash-point sweep between coalesced append and shared fsync",
		Header: []string{"snap every", "fsync µs", "wal B", "snap B", "write ms", "recover µs", "runs", "crashed", "completed", "1x"},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.SnapshotEvery),
			fmt.Sprintf("%d", r.FsyncUS),
			fmt.Sprintf("%d", r.WALBytes),
			fmt.Sprintf("%d", r.SnapBytes),
			fmt.Sprintf("%.2f", r.WriteCostMS),
			fmt.Sprintf("%.1f", r.RecoveryUS),
			fmt.Sprintf("%d", r.CrashRuns),
			fmt.Sprintf("%d", r.Crashes),
			fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%d", r.ExactlyOnce),
		})
	}
	for _, g := range group {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("group %d", g.GroupMax),
			fmt.Sprintf("%d", g.FsyncUS),
			fmt.Sprintf("%d", g.WALBytes),
			"0",
			fmt.Sprintf("%.2f", g.WriteCostMS),
			fmt.Sprintf("%d fsyncs (%.4f/txn)", g.Fsyncs, g.FsyncsPerTxn),
			fmt.Sprintf("%d", g.CrashPoints),
			fmt.Sprintf("%d", g.CrashPoints-1),
			"",
			fmt.Sprintf("lost=%d corrupt=%d", g.CrashLost, g.CrashCorrupt),
		})
	}
	return t, struct {
		Results []DurabilityResult      `json:"results"`
		Group   []DurabilityGroupResult `json:"group_commit"`
	}{results, group}, nil
}
