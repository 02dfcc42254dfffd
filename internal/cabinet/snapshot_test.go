package cabinet

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"tax/internal/telemetry"
	"tax/internal/vclock"
)

// diffModel is the differential test's picture of what the store and its
// disk should hold: the table, and the WAL bytes since the last snapshot
// as the reference framing would have written them — each with the state
// a crash would roll it back to.
type diffModel struct {
	table     map[string][]byte
	seq       uint64
	wal       []byte
	durTable  map[string][]byte
	durSeq    uint64
	durWALLen int
	snapshots int
}

func (m *diffModel) apply(ops []Op) {
	m.seq++
	m.wal = appendFrame(m.wal, encodeTxn(m.seq, ops))
	for _, op := range ops {
		if op.Del {
			delete(m.table, op.Key)
		} else {
			m.table[op.Key] = append([]byte(nil), op.Value...)
		}
	}
}

// synced marks everything applied so far as durable. Values are replaced,
// never edited in place, so a shallow clone holds the durable state.
func (m *diffModel) synced() {
	m.durTable, m.durSeq, m.durWALLen = maps.Clone(m.table), m.seq, len(m.wal)
}

// crashed rolls the model back to its durable state.
func (m *diffModel) crashed() {
	m.table, m.seq, m.wal = maps.Clone(m.durTable), m.durSeq, m.wal[:m.durWALLen]
}

// diffOps draws one transaction over a small key pool, so overwrites,
// deletes of present and absent keys, and delete-then-re-add — inside one
// transaction and across transactions between two snapshots — all occur.
// Key and value lengths straddle the one-byte uvarint boundary.
func diffOps(rng *rand.Rand) []Op {
	key := func() string {
		i := rng.Intn(48)
		if i%7 == 0 {
			return fmt.Sprintf("long/%0140d", i)
		}
		return fmt.Sprintf("k/%02d", i)
	}
	value := func() []byte {
		n := []int{0, 1, 17, 127, 128, 300}[rng.Intn(6)]
		v := make([]byte, n)
		rng.Read(v)
		return v
	}
	ops := make([]Op, 1+rng.Intn(3))
	for i := range ops {
		switch k := key(); rng.Intn(10) {
		case 0, 1, 2:
			ops[i] = Op{Del: true, Key: k}
		case 3:
			// Delete and re-add inside one transaction.
			ops[i] = Op{Del: true, Key: k}
			ops = append(ops, Op{Key: k, Value: value()})
		default:
			ops[i] = Op{Key: k, Value: value()}
		}
	}
	return ops
}

// TestSnapshotDifferential drives random transactions through every
// commit entry point at three snapshot cadences, crashing and reopening
// midway, and holds the disk to the reference encoders byte for byte:
// every snapshot the store publishes equals encodeSnapshot of the model
// table, the live WAL equals the reference framing of the transactions
// since, and RecoverBytes of the durable files rebuilds the model.
func TestSnapshotDifferential(t *testing.T) {
	for _, every := range []int{1, 4, 64} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("every=%d/seed=%d", every, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				var snapSeqs []uint64
				s := NewStore(Options{
					Clock:         vclock.NewVirtual(),
					SnapshotEvery: every,
					Observer: func(op string, _ time.Duration, seq uint64) {
						if op == "snapshot" {
							snapSeqs = append(snapSeqs, seq)
						}
					},
				})
				disk := s.Disk()
				m := &diffModel{table: map[string][]byte{}, durTable: map[string][]byte{}}

				check := func(step int) {
					t.Helper()
					if len(snapSeqs) > 0 {
						// CommitMany stays within one batch below, so a
						// snapshot always lands on the last seq of the call.
						if got := snapSeqs[len(snapSeqs)-1]; len(snapSeqs) != 1 || got != m.seq {
							t.Fatalf("step %d: snapshots at %v, model seq %d", step, snapSeqs, m.seq)
						}
						snapSeqs = snapSeqs[:0]
						m.snapshots++
						m.wal = m.wal[:0]
						m.synced()
						got, _ := disk.DurableBytes(snapFile)
						if want := encodeSnapshot(m.seq, m.table); !bytes.Equal(got, want) {
							t.Fatalf("step %d: snapshot at seq %d differs from the reference encoder (%d vs %d bytes)",
								step, m.seq, len(got), len(want))
						}
					}
					if live, _ := disk.ReadFile(walFile); !bytes.Equal(live, m.wal) {
						t.Fatalf("step %d: live WAL differs from the reference framing (%d vs %d bytes)",
							step, len(live), len(m.wal))
					}
					snapB, _ := disk.DurableBytes(snapFile)
					walB, _ := disk.DurableBytes(walFile)
					table, seq, err := RecoverBytes(snapB, walB)
					if err != nil || seq != m.durSeq || !maps.EqualFunc(table, m.durTable, bytes.Equal) {
						t.Fatalf("step %d: RecoverBytes = %d entries seq %d err %v, want %d entries seq %d",
							step, len(table), seq, err, len(m.durTable), m.durSeq)
					}
				}

				const steps = 400
				for step := 0; step < steps; step++ {
					switch rng.Intn(4) {
					case 0:
						ops := diffOps(rng)
						if err := s.CommitNoSync(ops); err != nil {
							t.Fatal(err)
						}
						m.apply(ops)
					case 1:
						txns := make([][]Op, 1+rng.Intn(5))
						for i := range txns {
							txns[i] = diffOps(rng)
						}
						if err := s.CommitMany(txns); err != nil {
							t.Fatal(err)
						}
						for _, ops := range txns {
							m.apply(ops)
						}
						m.synced()
					default:
						ops := diffOps(rng)
						if err := s.Commit(ops); err != nil {
							t.Fatal(err)
						}
						m.apply(ops)
						m.synced()
					}
					check(step)

					if step == steps/2 {
						// Leave an unsynced record in flight, tear it, and
						// come back: the store must rebuild its snapshot
						// bookkeeping from what recovery accepted.
						ops := diffOps(rng)
						if err := s.CommitNoSync(ops); err != nil {
							t.Fatal(err)
						}
						if len(snapSeqs) > 0 { // it tipped the cadence: compacted, so durable
							m.apply(ops)
							check(step)
						}
						disk.Crash(TornWrite{File: walFile, Keep: 5})
						m.crashed()
						if err := s.Put("dead", nil); !errors.Is(err, ErrCrashed) {
							t.Fatalf("commit on a crashed disk = %v, want ErrCrashed", err)
						}
						if _, err := s.Reopen(); err != nil {
							t.Fatal(err)
						}
						if s.Seq() != m.seq || s.Len() != len(m.table) {
							t.Fatalf("reopened at seq %d with %d entries, want seq %d with %d",
								s.Seq(), s.Len(), m.seq, len(m.table))
						}
						for k, want := range m.table {
							if got, ok := s.Get(k); !ok || !bytes.Equal(got, want) {
								t.Fatalf("reopened store lost %q", k)
							}
						}
						check(step)
					}
				}
				if err := s.Snapshot(); err != nil {
					t.Fatal(err)
				}
				check(steps)
				if m.snapshots < 2 {
					t.Fatalf("only %d snapshots compared", m.snapshots)
				}
			})
		}
	}
}

// TestSnapshotAllocationIsExactSize is the scaling wall: one snapshot of
// an N-entry table allocates its image, once, at its exact size, plus the
// merged key list — not a buffer that doubled its way up, and not a
// second and third copy inside the disk.
func TestSnapshotAllocationIsExactSize(t *testing.T) {
	for _, n := range []int{100, 2000} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			s := NewStore(Options{Clock: vclock.NewVirtual(), SnapshotEvery: -1})
			value := bytes.Repeat([]byte{0xC4}, 64)
			put := func(i int) {
				if err := s.Put(fmt.Sprintf("u/%06d", i*7919%1000003), value); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				put(i)
			}
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			for i := n; i < n+n/10; i++ {
				put(i)
			}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)

			image, _ := s.Disk().DurableBytes(snapFile)
			if want := encodeSnapshot(s.Seq(), s.table); !bytes.Equal(image, want) {
				t.Fatal("snapshot differs from the reference encoder")
			}
			keyList := s.Len() * int(unsafe.Sizeof(""))
			// Size classes round each of the two allocations up by at most
			// an eighth; 1 KiB covers the file entry and runtime noise.
			// Doubling growth alone would be past 2x the image.
			limit := uint64(len(image)+keyList)*9/8 + 1024
			if got := after.TotalAlloc - before.TotalAlloc; got > limit {
				t.Fatalf("snapshot of %d entries allocated %d bytes; image %d + key list %d allow %d",
					s.Len(), got, len(image), keyList, limit)
			}
		})
	}
}

// TestWriteAmplificationCounters checks cabinet.wal_bytes and
// cabinet.snapshot_bytes against the bytes that reached the disk, and
// that counting them costs the commit path no allocation.
func TestWriteAmplificationCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewStore(Options{Clock: vclock.NewVirtual(), SnapshotEvery: 4, Telemetry: reg, Host: "h"})
	var walWant, snapWant int64
	for i := 0; i < 10; i++ {
		ops := []Op{{Key: fmt.Sprintf("k%d", i%3), Value: bytes.Repeat([]byte{1}, 10*i)}}
		walWant += int64(len(appendFrame(nil, encodeTxn(uint64(i+1), ops))))
		if err := s.Commit(ops); err != nil {
			t.Fatal(err)
		}
		if (i+1)%4 == 0 {
			image, _ := s.Disk().DurableBytes(snapFile)
			snapWant += int64(len(image))
		}
	}
	if err := s.CommitMany([][]Op{{{Key: "a", Value: []byte("1")}}, {{Del: true, Key: "a"}}}); err != nil {
		t.Fatal(err)
	}
	walWant += int64(len(appendFrame(nil, encodeTxn(11, []Op{{Key: "a", Value: []byte("1")}}))))
	walWant += int64(len(appendFrame(nil, encodeTxn(12, []Op{{Del: true, Key: "a"}}))))
	image, _ := s.Disk().DurableBytes(snapFile)
	snapWant += int64(len(image))

	if got := reg.Counter("cabinet.wal_bytes", "host", "h").Value(); got != walWant {
		t.Errorf("cabinet.wal_bytes = %d, want %d", got, walWant)
	}
	if got := reg.Counter("cabinet.snapshot_bytes", "host", "h").Value(); got != snapWant {
		t.Errorf("cabinet.snapshot_bytes = %d, want %d", got, snapWant)
	}
	if got := reg.Counter("cabinet.snapshots", "host", "h").Value(); got != 3 {
		t.Errorf("cabinet.snapshots = %d, want 3", got)
	}

	// An overwrite of an existing key at a steady size allocates exactly
	// the table's private copy of the value — the record is encoded in
	// the WAL file's own buffer — with telemetry on or off.
	for _, tel := range []*telemetry.Registry{nil, telemetry.NewRegistry()} {
		s := NewStore(Options{Clock: vclock.NewVirtual(), SnapshotEvery: 64, Telemetry: tel})
		ops := []Op{{Key: "k", Value: bytes.Repeat([]byte{7}, 100)}}
		for i := 0; i < 64; i++ { // one full cycle sizes the WAL buffer
			if err := s.Commit(ops); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(50, func() { _ = s.Commit(ops) }); got != 1 {
			t.Errorf("telemetry=%v: Commit allocates %v times, want 1", tel != nil, got)
		}
	}
}
