package cabinet

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"time"

	"tax/internal/telemetry"
	"tax/internal/vclock"
)

// File names the store keeps on its disk. The WAL is append-only; the
// snapshot is replaced atomically via snap.tmp + fsync + rename.
const (
	walFile     = "wal"
	snapFile    = "snap"
	snapTmpFile = "snap.tmp"
)

// Options parameterizes a Store.
type Options struct {
	// Clock is the host clock; required when Disk is nil.
	Clock vclock.Clock
	// Disk backs the store; a fresh one is created from Clock/FsyncCost
	// when nil.
	Disk *Disk
	// FsyncCost overrides the disk's sync latency when the store creates
	// its own disk.
	FsyncCost time.Duration
	// SnapshotEvery compacts the WAL into a snapshot after this many
	// committed transactions; negative disables compaction. Zero, the
	// default, compacts in proportion to what was written: once the WAL
	// bytes journaled since the last compaction reach the size of the
	// image a compaction would write (and at least compactFloor), so
	// snapshot bytes never exceed WAL bytes and recovery replays at most
	// about one image's worth of log.
	SnapshotEvery int
	// GroupCommit coalesces concurrent Commit callers into shared
	// fsyncs: the first caller to arrive becomes the batch leader,
	// journals every queued transaction as its own WAL record, and
	// issues one fsync covering them all; followers block until the
	// fsync that covers their record completes. Every Commit still
	// returns only once its transaction is durable — group commit
	// changes fsync count, never durability semantics. Sequential
	// callers degenerate to one-transaction batches, so a single-writer
	// workload behaves (and costs) exactly as without it.
	GroupCommit bool
	// GroupMaxTxns bounds how many transactions share one fsync (the
	// coalesce window); zero means DefaultGroupMaxTxns.
	GroupMaxTxns int
	// Telemetry, when set, records cabinet.wal_appends, cabinet.wal_bytes,
	// cabinet.fsyncs, cabinet.snapshots, cabinet.snapshot_bytes and
	// cabinet.recovery_ms under the given Host label. snapshot_bytes over
	// wal_bytes is the store's write amplification.
	Telemetry *telemetry.Registry
	// Host labels the telemetry series.
	Host string
	// Observer, when set, is called once per durability action —
	// "wal_append", "fsync", "snapshot", "recover" — with the disk's
	// virtual time after the action and the store's committed sequence
	// number. Calls happen outside the store lock, in action order per
	// goroutine; a flight recorder uses it to interleave durability work
	// with the itinerary timeline.
	Observer func(op string, at time.Duration, seq uint64)
}

// compactFloor is the least WAL a proportional compaction waits for, so
// that a tiny or empty table is not rewritten after every transaction.
const compactFloor = 4 << 10

// DefaultGroupMaxTxns is the group-commit coalesce bound when Options
// leaves it zero: at most this many transactions share one fsync.
const DefaultGroupMaxTxns = 64

// Op is one mutation inside a transaction.
type Op struct {
	// Del distinguishes deletes from puts.
	Del bool
	// Key is the entry being written or deleted.
	Key string
	// Value is the put payload (ignored for deletes).
	Value []byte
}

// Store is a crash-consistent key-value store: every transaction is
// WAL-journaled and fsynced before it mutates the in-memory table, and
// the WAL is periodically compacted into a snapshot. After a Crash,
// Reopen rebuilds exactly the durable history. Safe for concurrent use.
type Store struct {
	mu        sync.Mutex
	disk      *Disk
	opts      Options
	table     map[string][]byte
	seq       uint64 // last committed transaction sequence number
	sinceSnap int    // transactions journaled since the last compaction
	walSince  int    // WAL bytes journaled since the last compaction
	// Snapshot bookkeeping, maintained by apply so a snapshot is one pass
	// at a known size. tableBytes is the encoded size of every entry in
	// table (entrySize summed). sorted is the key list of the last
	// snapshot, in order; it may hold keys deleted since. added holds the
	// keys inserted since, unsorted, possibly repeated or already in
	// sorted (a key deleted and re-added between two snapshots).
	tableBytes int
	sorted     []string
	added      []string
	hook       func(seq uint64) // fired after each synced append, outside mu
	// preSyncHook fires after each WAL append and before the fsync that
	// would cover it — the window group commit opens between a record
	// reaching the log and becoming durable. It runs under the store
	// lock (see SetPreSyncHook).
	preSyncHook func(seq uint64)

	// gcMu guards the group-commit queue; it is taken before s.mu and
	// never while holding it.
	gcMu      sync.Mutex
	gcQueue   []*gcWaiter
	gcLeading bool

	walAppends    *telemetry.Counter
	walBytes      *telemetry.Counter
	fsyncs        *telemetry.Counter
	snapshots     *telemetry.Counter
	snapshotBytes *telemetry.Counter
	recoveryMS    *telemetry.Histogram
}

// NewStore creates an empty store (and its disk, unless one is given).
func NewStore(opts Options) *Store {
	if opts.Disk == nil {
		opts.Disk = NewDisk(DiskConfig{Clock: opts.Clock, SyncLatency: opts.FsyncCost})
	}
	s := &Store{disk: opts.Disk, opts: opts, table: make(map[string][]byte)}
	if opts.Telemetry != nil {
		s.walAppends = opts.Telemetry.Counter("cabinet.wal_appends", "host", opts.Host)
		s.walBytes = opts.Telemetry.Counter("cabinet.wal_bytes", "host", opts.Host)
		s.fsyncs = opts.Telemetry.Counter("cabinet.fsyncs", "host", opts.Host)
		s.snapshots = opts.Telemetry.Counter("cabinet.snapshots", "host", opts.Host)
		s.snapshotBytes = opts.Telemetry.Counter("cabinet.snapshot_bytes", "host", opts.Host)
		s.recoveryMS = opts.Telemetry.Histogram("cabinet.recovery_ms", "host", opts.Host)
	}
	return s
}

// Disk exposes the backing disk (the simnet crash hooks crash it
// alongside the host).
func (s *Store) Disk() *Disk { return s.disk }

// SetAppendHook installs fn, called after every synced WAL append with
// the committed sequence number. The hook runs outside the store lock,
// so it may crash the host — the crash-point harness uses exactly that.
// Under group commit the hook fires once per transaction in a batch, in
// sequence order, after the shared fsync.
func (s *Store) SetAppendHook(fn func(seq uint64)) {
	s.mu.Lock()
	s.hook = fn
	s.mu.Unlock()
}

// SetPreSyncHook installs fn, called after each WAL append with the
// assigned sequence number, before the fsync that would make it durable.
// This is the window the group-commit crash sweep targets: a record is
// in the log but the shared fsync has not happened, so a crash here must
// leave every waiter of the batch either fully durable or cleanly
// absent. Unlike the append hook, fn runs while the store lock is held —
// it may crash the Disk (its own lock) and record state, but must not
// call back into the Store.
func (s *Store) SetPreSyncHook(fn func(seq uint64)) {
	s.mu.Lock()
	s.preSyncHook = fn
	s.mu.Unlock()
}

// Get returns the committed value for key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.table[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Keys returns the committed keys with the given prefix, sorted.
func (s *Store) Keys(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for k := range s.table {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of committed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.table)
}

// Seq returns the last committed transaction sequence number.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Put commits a single-key write.
func (s *Store) Put(key string, value []byte) error {
	return s.Commit([]Op{{Key: key, Value: value}})
}

// Delete commits a single-key delete.
func (s *Store) Delete(key string) error {
	return s.Commit([]Op{{Del: true, Key: key}})
}

// Commit journals the ops as one atomic transaction: WAL append, fsync,
// then the in-memory table mutates. Either every op survives a crash or
// none does. An empty transaction is a no-op. With Options.GroupCommit
// set, concurrent callers coalesce their appends into one shared fsync;
// Commit still returns only once its own record is durable.
func (s *Store) Commit(ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	if s.opts.GroupCommit {
		return s.commitGroup(ops)
	}
	return s.commit(ops, true)
}

// CommitNoSync journals the ops without forcing an fsync: they become
// durable at the next synced commit or snapshot. For state where losing
// the tail on crash is acceptable (the dedup journal) but per-write
// fsync cost is not.
func (s *Store) CommitNoSync(ops []Op) error {
	return s.commit(ops, false)
}

func (s *Store) commit(ops []Op, sync bool) error {
	if len(ops) == 0 {
		return nil
	}
	s.mu.Lock()
	if s.disk.Crashed() {
		s.mu.Unlock()
		return ErrCrashed
	}
	s.seq++
	seq := s.seq
	walBytes, err := s.journal(seq, ops)
	if err != nil {
		s.seq--
		s.mu.Unlock()
		return err
	}
	if s.preSyncHook != nil && sync {
		s.preSyncHook(seq)
	}
	if sync {
		if err := s.disk.Sync(walFile); err != nil {
			s.seq--
			s.mu.Unlock()
			return err
		}
		if s.fsyncs != nil {
			s.fsyncs.Inc()
		}
	}
	s.apply(ops)
	if s.walAppends != nil {
		s.walAppends.Inc()
		s.walBytes.Add(int64(walBytes))
	}
	s.sinceSnap++
	s.walSince += walBytes
	snapped := s.due() && s.snapshotLocked()
	hook := s.hook
	obs := s.opts.Observer
	s.mu.Unlock()
	if obs != nil {
		now := s.disk.Clock().Now()
		obs("wal_append", now, seq)
		if sync {
			obs("fsync", now, seq)
		}
		if snapped {
			obs("snapshot", now, seq)
		}
	}
	if hook != nil {
		hook(seq)
	}
	return nil
}

// journal appends one transaction's WAL record, encoding it straight into
// the log file's buffer, and reports the record's size. The caller holds
// s.mu and decides when to fsync.
func (s *Store) journal(seq uint64, ops []Op) (int, error) {
	return s.disk.appendFunc(walFile, func(buf []byte) []byte {
		return appendTxnFrame(buf, seq, ops)
	})
}

// apply mutates the table with one journaled transaction's ops. It is
// the only place committed ops reach the table, so it is also where the
// snapshot bookkeeping (tableBytes, added) stays in step. The caller
// holds s.mu.
func (s *Store) apply(ops []Op) {
	for _, op := range ops {
		old, had := s.table[op.Key]
		if had {
			s.tableBytes -= entrySize(op.Key, old)
		}
		if op.Del {
			delete(s.table, op.Key)
			continue
		}
		if !had {
			s.added = append(s.added, op.Key)
		}
		s.table[op.Key] = append([]byte(nil), op.Value...)
		s.tableBytes += entrySize(op.Key, op.Value)
	}
}

// gcWaiter is one queued group-commit transaction: its ops and the
// channel its caller blocks on until the covering fsync completes.
type gcWaiter struct {
	ops  []Op
	done chan error
}

// groupMax returns the effective coalesce bound.
func (s *Store) groupMax() int {
	if s.opts.GroupMaxTxns > 0 {
		return s.opts.GroupMaxTxns
	}
	return DefaultGroupMaxTxns
}

// commitGroup is the leader/follower protocol. Every caller enqueues its
// transaction; the first to find no leader running becomes the leader
// and drains the queue in batches of at most GroupMaxTxns, one fsync per
// batch, signalling each batch's waiters before taking the next. The
// coalesce window is the leader's own commit latency: callers that
// arrive while a batch's fsync is in flight (on the virtual clock, while
// the disk charges SyncLatency) form the next batch. No caller returns
// before the fsync covering its record; sequential callers produce
// one-transaction batches and behave exactly like plain Commit.
func (s *Store) commitGroup(ops []Op) error {
	w := &gcWaiter{ops: ops, done: make(chan error, 1)}
	s.gcMu.Lock()
	s.gcQueue = append(s.gcQueue, w)
	if s.gcLeading {
		s.gcMu.Unlock()
		return <-w.done
	}
	s.gcLeading = true
	for len(s.gcQueue) > 0 {
		batch := s.gcQueue
		if max := s.groupMax(); len(batch) > max {
			batch = batch[:max]
		}
		s.gcQueue = s.gcQueue[len(batch):]
		s.gcMu.Unlock()
		err := s.commitBatch(batch)
		for _, bw := range batch {
			bw.done <- err
		}
		s.gcMu.Lock()
	}
	s.gcQueue = nil
	s.gcLeading = false
	s.gcMu.Unlock()
	// The leader's own transaction rode the first batch; its result is
	// buffered.
	return <-w.done
}

// commitBatch journals one batch: every transaction gets its own WAL
// record and sequence number, one fsync covers them all, and only then
// do the table mutations apply, in sequence order. On any error the
// whole batch reports it and mutates nothing — the unsynced appends
// die with the page cache, which is exactly the atomicity the crash
// sweep asserts. Runs under s.mu like commit; CommitNoSync appends that
// interleave before the shared fsync simply become durable with it.
func (s *Store) commitBatch(batch []*gcWaiter) error {
	s.mu.Lock()
	if s.disk.Crashed() {
		s.mu.Unlock()
		return ErrCrashed
	}
	startSeq := s.seq
	seqs := make([]uint64, len(batch))
	walBytes := 0
	for i, w := range batch {
		s.seq++
		seqs[i] = s.seq
		n, err := s.journal(s.seq, w.ops)
		walBytes += n
		if err != nil {
			s.seq = startSeq
			s.mu.Unlock()
			return err
		}
		if s.preSyncHook != nil {
			s.preSyncHook(s.seq)
		}
	}
	if err := s.disk.Sync(walFile); err != nil {
		s.seq = startSeq
		s.mu.Unlock()
		return err
	}
	if s.fsyncs != nil {
		s.fsyncs.Inc()
	}
	for _, w := range batch {
		s.apply(w.ops)
	}
	if s.walAppends != nil {
		s.walAppends.Add(int64(len(batch)))
		s.walBytes.Add(int64(walBytes))
	}
	s.sinceSnap += len(batch)
	s.walSince += walBytes
	snapped := s.due() && s.snapshotLocked()
	hook := s.hook
	obs := s.opts.Observer
	s.mu.Unlock()
	last := seqs[len(seqs)-1]
	if obs != nil {
		now := s.disk.Clock().Now()
		for _, q := range seqs {
			obs("wal_append", now, q)
		}
		obs("fsync", now, last)
		if snapped {
			obs("snapshot", now, last)
		}
	}
	if hook != nil {
		for _, q := range seqs {
			hook(q)
		}
	}
	return nil
}

// CommitMany journals each transaction as its own WAL record and makes
// them all durable with shared fsyncs — group-commit batch formation
// made explicit, for callers (and deterministic benchmarks) that hold a
// set of independent transactions in hand. Each transaction is atomic
// on its own; the group shares only fsyncs, at most GroupMaxTxns
// transactions per fsync. Semantically identical to len(txns)
// concurrent Commit callers that happened to coalesce perfectly.
func (s *Store) CommitMany(txns [][]Op) error {
	batch := make([]*gcWaiter, 0, len(txns))
	for _, ops := range txns {
		if len(ops) == 0 {
			continue
		}
		batch = append(batch, &gcWaiter{ops: ops})
	}
	for len(batch) > 0 {
		n := len(batch)
		if max := s.groupMax(); n > max {
			n = max
		}
		if err := s.commitBatch(batch[:n]); err != nil {
			return err
		}
		batch = batch[n:]
	}
	return nil
}

// due reports whether the commit just journaled makes a compaction due:
// every SnapshotEvery transactions when it is positive, never when it is
// negative, and by default once the WAL written since the last
// compaction outweighs the image the compaction would write. The caller
// holds s.mu.
func (s *Store) due() bool {
	switch every := s.opts.SnapshotEvery; {
	case every > 0:
		return s.sinceSnap >= every
	case every < 0:
		return false
	}
	return s.walSince >= max(s.imageSize(), compactFloor)
}

// Snapshot forces a compaction: the full table is written to snap.tmp,
// fsynced, renamed over the snapshot, and the WAL truncated.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	if s.disk.Crashed() {
		s.mu.Unlock()
		return ErrCrashed
	}
	snapped := s.snapshotLocked()
	seq := s.seq
	obs := s.opts.Observer
	s.mu.Unlock()
	if snapped && obs != nil {
		obs("snapshot", s.disk.Clock().Now(), seq)
	}
	return nil
}

// snapshotLocked writes the snapshot under s.mu, reporting whether it
// completed. A crash between the rename and the truncate leaves WAL
// records the snapshot already covers; replay skips them by sequence
// number, so the pair need not be atomic together.
func (s *Store) snapshotLocked() bool {
	image := s.snapshotImage()
	if s.disk.replace(snapTmpFile, image) != nil {
		return false // crashed mid-sequence; recovery ignores snap.tmp
	}
	if s.disk.Sync(snapTmpFile) != nil {
		return false
	}
	if s.fsyncs != nil {
		s.fsyncs.Inc()
	}
	if s.disk.Rename(snapTmpFile, snapFile) != nil {
		return false
	}
	if s.disk.Truncate(walFile) != nil {
		return false
	}
	s.sinceSnap, s.walSince = 0, 0
	if s.snapshots != nil {
		s.snapshots.Inc()
		s.snapshotBytes.Add(int64(len(image)))
	}
	return true
}

// Reopen recovers the store after a disk Crash: the disk is brought
// back, the durable snapshot and WAL suffix are replayed, and the
// in-memory table is rebuilt to exactly the durable history. Returns
// the recovery duration charged to the host clock.
func (s *Store) Reopen() (time.Duration, error) {
	s.mu.Lock()
	defer func() {
		seq := s.seq
		obs := s.opts.Observer
		s.mu.Unlock()
		if obs != nil {
			obs("recover", s.disk.Clock().Now(), seq)
		}
	}()
	cost := s.disk.Reopen()
	snapBytes, _ := s.disk.DurableBytes(snapFile)
	walBytes, _ := s.disk.DurableBytes(walFile)
	table, seq, err := RecoverBytes(snapBytes, walBytes)
	if err != nil {
		return cost, err
	}
	// The valid WAL is what the next compaction will fold, so the
	// proportional cadence resumes where the crashed store left it.
	valid, _ := ReplayWAL(walBytes, func([]byte) error { return nil })
	s.table = table
	s.seq = seq
	s.sinceSnap, s.walSince = 0, valid
	s.tableBytes, s.sorted, s.added = 0, nil, make([]string, 0, len(table))
	for k, v := range table {
		s.tableBytes += entrySize(k, v)
		s.added = append(s.added, k)
	}
	// Drop any torn WAL suffix so new appends start at a frame boundary:
	// rewrite the valid prefix. Truncate+Append+Sync is safe here — the
	// content is exactly what recovery accepted.
	if valid != len(walBytes) {
		if err := s.disk.Truncate(walFile); err == nil {
			_ = s.disk.Append(walFile, walBytes[:valid])
			_ = s.disk.Sync(walFile)
		}
	}
	if s.recoveryMS != nil {
		s.recoveryMS.Observe(cost)
	}
	return cost, nil
}

// RecoverBytes is the recovery protocol as a pure function: given the
// durable snapshot and WAL images, it returns the recovered table and
// last committed sequence number. The crash-point harness calls it on
// every byte prefix of a real WAL to prove recovery is total over torn
// writes. Corruption is never an error — a bad snapshot falls back to
// empty, a bad WAL frame ends the log — because a crashed host must
// always reopen.
func RecoverBytes(snapBytes, walBytes []byte) (map[string][]byte, uint64, error) {
	table, snapSeq := decodeSnapshot(snapBytes)
	seq := snapSeq
	_, _ = ReplayWAL(walBytes, func(payload []byte) error {
		txSeq, ops, err := decodeTxn(payload)
		if err != nil {
			return nil // frame passed CRC but payload malformed: skip
		}
		if txSeq <= snapSeq {
			return nil // already folded into the snapshot
		}
		for _, op := range ops {
			if op.Del {
				delete(table, op.Key)
			} else {
				table[op.Key] = op.Value
			}
		}
		if txSeq > seq {
			seq = txSeq
		}
		return nil
	})
	return table, seq, nil
}

// Transaction payload encoding:
//
//	seq   uint64 LE
//	count uvarint
//	per op: kind byte (0 put, 1 del) | key len uvarint | key
//	        | for puts: value len uvarint | value
//
// appendTxnFrame appends the payload to buf already framed as a WAL
// record (wal.go): the header is reserved first and filled in once the
// payload behind it is complete, so nothing is encoded twice or copied.
func appendTxnFrame(buf []byte, seq uint64, ops []Op) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, walHeaderSize)...)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		if op.Del {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(op.Key)))
		buf = append(buf, op.Key...)
		if !op.Del {
			buf = binary.AppendUvarint(buf, uint64(len(op.Value)))
			buf = append(buf, op.Value...)
		}
	}
	putFrameHeader(buf[start:start+walHeaderSize], buf[start+walHeaderSize:])
	return buf
}

func decodeTxn(b []byte) (uint64, []Op, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("cabinet: txn too short")
	}
	seq := binary.LittleEndian.Uint64(b[:8])
	b = b[8:]
	count, n := binary.Uvarint(b)
	if n <= 0 || count > uint64(len(b)) {
		return 0, nil, fmt.Errorf("cabinet: bad txn op count")
	}
	b = b[n:]
	ops := make([]Op, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(b) < 1 {
			return 0, nil, fmt.Errorf("cabinet: txn truncated")
		}
		kind := b[0]
		if kind > 1 {
			return 0, nil, fmt.Errorf("cabinet: bad txn op kind %d", kind)
		}
		b = b[1:]
		klen, n := binary.Uvarint(b)
		if n <= 0 || klen > uint64(len(b)-n) {
			return 0, nil, fmt.Errorf("cabinet: bad txn key length")
		}
		key := string(b[n : n+int(klen)])
		b = b[n+int(klen):]
		op := Op{Del: kind == 1, Key: key}
		if kind == 0 {
			vlen, n := binary.Uvarint(b)
			if n <= 0 || vlen > uint64(len(b)-n) {
				return 0, nil, fmt.Errorf("cabinet: bad txn value length")
			}
			op.Value = append([]byte(nil), b[n:n+int(vlen)]...)
			b = b[n+int(vlen):]
		}
		ops = append(ops, op)
	}
	if len(b) != 0 {
		return 0, nil, fmt.Errorf("cabinet: %d trailing txn bytes", len(b))
	}
	return seq, ops, nil
}

// Snapshot file encoding:
//
//	magic   "TAXC"
//	lastSeq uint64 LE
//	count   uvarint
//	entries key len uvarint | key | value len uvarint | value   (sorted)
//	crc     uint32 LE over everything before it
var snapMagic = []byte("TAXC")

// snapshotImage encodes the table as a snapshot file in one pass into a
// buffer of exactly the image's size, which tableBytes makes known up
// front. The key order comes from merging the previous snapshot's sorted
// list with the (freshly sorted) keys added since, so only the new keys
// are ever sorted; keys no longer in the table fall out of the merge, and
// the merged list becomes the next snapshot's starting point. The caller
// holds s.mu and owns the returned image.
func (s *Store) snapshotImage() []byte {
	buf := make([]byte, 0, s.imageSize())
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, s.seq)
	buf = binary.AppendUvarint(buf, uint64(len(s.table)))

	slices.Sort(s.added)
	old, added := s.sorted, s.added
	merged := make([]string, 0, len(s.table))
	for len(old) > 0 || len(added) > 0 {
		var k string
		if len(added) == 0 || (len(old) > 0 && old[0] <= added[0]) {
			k, old = old[0], old[1:]
		} else {
			k, added = added[0], added[1:]
		}
		if n := len(merged); n > 0 && merged[n-1] == k {
			continue // re-added since the last snapshot, or added twice
		}
		v, ok := s.table[k]
		if !ok {
			continue // deleted since it was listed
		}
		merged = append(merged, k)
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	s.sorted, s.added = merged, s.added[:0]
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// imageSize is the exact size of the snapshot image of the current table.
// The caller holds s.mu.
func (s *Store) imageSize() int {
	return len(snapMagic) + 8 + uvarintLen(uint64(len(s.table))) + s.tableBytes + 4
}

// entrySize is the encoded size of one snapshot entry.
func entrySize(key string, value []byte) int {
	return uvarintLen(uint64(len(key))) + len(key) + uvarintLen(uint64(len(value))) + len(value)
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// decodeSnapshot parses a snapshot image, returning an empty table and
// sequence 0 on any structural or CRC failure — a host must reopen even
// when its snapshot is ruined, falling back to full WAL replay.
func decodeSnapshot(b []byte) (map[string][]byte, uint64) {
	table := make(map[string][]byte)
	if len(b) < len(snapMagic)+8+4 || string(b[:4]) != string(snapMagic) {
		return table, 0
	}
	body, crc := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != crc {
		return table, 0
	}
	seq := binary.LittleEndian.Uint64(body[4:12])
	rest := body[12:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return make(map[string][]byte), 0
	}
	rest = rest[n:]
	for i := uint64(0); i < count; i++ {
		klen, n := binary.Uvarint(rest)
		if n <= 0 || klen > uint64(len(rest)-n) {
			return make(map[string][]byte), 0
		}
		key := string(rest[n : n+int(klen)])
		rest = rest[n+int(klen):]
		vlen, n := binary.Uvarint(rest)
		if n <= 0 || vlen > uint64(len(rest)-n) {
			return make(map[string][]byte), 0
		}
		table[key] = append([]byte(nil), rest[n:n+int(vlen)]...)
		rest = rest[n+int(vlen):]
	}
	if len(rest) != 0 {
		return make(map[string][]byte), 0
	}
	return table, seq
}
