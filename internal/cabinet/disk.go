// Package cabinet implements TACOMA-style file cabinets: host-local
// durable storage that survives a host crash, so a rear-guard can
// restore and relaunch an agent from state the crash did not take.
//
// Before this package, the simulation's Crash was transport-only: every
// in-memory table on the "crashed" host silently survived, so recovery
// was being proven against an unrealistically forgiving failure model.
// The cabinet makes survival earned. It is built from three layers:
//
//   - Disk: a simulated host-local disk with an explicit page-cache /
//     durable split. Writes land in the cache; only Sync (fsync) makes
//     them durable, and the fsync latency is charged against the host's
//     virtual clock so durability has a measurable cost. Crash discards
//     the cache — including, possibly, a torn suffix of a record that
//     was mid-write.
//   - WAL records (wal.go): length+CRC framed entries. Replay stops at
//     the first torn or corrupt frame, treating it as the end of the
//     log, which is exactly what a crashed append looks like.
//   - Store (store.go): a key-value store journaling every transaction
//     to the WAL and compacting into periodic snapshots. Recovery is a
//     pure function of the disk's durable bytes: latest valid snapshot
//     plus the WAL suffix with newer sequence numbers.
package cabinet

import (
	"errors"
	"sort"
	"sync"
	"time"

	"tax/internal/vclock"
)

var (
	// ErrCrashed is returned by disk and store operations between a
	// Crash and the matching Reopen: a dead host cannot write.
	ErrCrashed = errors.New("cabinet: host crashed")
	// ErrNoFile is returned when reading a file that does not exist.
	ErrNoFile = errors.New("cabinet: no such file")
)

// DiskConfig parameterizes a simulated disk.
type DiskConfig struct {
	// Clock is the host clock charged for fsyncs and recovery reads.
	// Required.
	Clock vclock.Clock
	// SyncLatency is the cost of one fsync (default 500µs). This is the
	// knob the durability benchmark sweeps: it prices every committed
	// cabinet transaction.
	SyncLatency time.Duration
}

// DefaultSyncLatency is the fsync cost when DiskConfig leaves it zero.
const DefaultSyncLatency = 500 * time.Microsecond

// readBandwidth is the sequential read throughput, in bytes/second,
// that prices recovery scans.
const readBandwidth = 500e6

// dfile is one file: its live content, of which the first durable bytes
// survive a crash and the rest is the unsynced page-cache tail. Durable
// content is always a prefix of live content (appends only extend, and
// Truncate resets both), so the durable state is a length, not a copy.
type dfile struct {
	live    []byte
	durable int
}

// Disk is a simulated host-local disk: named files with an explicit
// durable / page-cache split. Data appends become durable only on Sync;
// metadata operations (Rename, Remove, Truncate) are journaled
// synchronously, the ordered-journal assumption of common file systems.
// Safe for concurrent use.
type Disk struct {
	mu      sync.Mutex
	cfg     DiskConfig
	files   map[string]*dfile
	crashed bool
	syncs   int64
}

// Clock returns the clock the disk charges its latencies against.
func (d *Disk) Clock() vclock.Clock { return d.cfg.Clock }

// NewDisk creates an empty disk.
func NewDisk(cfg DiskConfig) *Disk {
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewVirtual()
	}
	if cfg.SyncLatency == 0 {
		cfg.SyncLatency = DefaultSyncLatency
	}
	return &Disk{cfg: cfg, files: make(map[string]*dfile)}
}

// Append extends the named file's page cache (creating the file on first
// write). The bytes are volatile until the next Sync.
func (d *Disk) Append(name string, p []byte) error {
	_, err := d.appendFunc(name, func(buf []byte) []byte { return append(buf, p...) })
	return err
}

// file returns the named file, creating it empty on first use. The caller
// holds d.mu.
func (d *Disk) file(name string) *dfile {
	f := d.files[name]
	if f == nil {
		f = &dfile{}
		d.files[name] = f
	}
	return f
}

// appendFunc is Append for a caller that encodes straight into the file's
// buffer instead of handing over finished bytes: fn receives the live
// content, must only append to it, and returns the extended slice. It reports how
// many bytes fn added. fn runs under the disk lock and must not call back
// into the Disk.
func (d *Disk) appendFunc(name string, fn func(buf []byte) []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return 0, ErrCrashed
	}
	f := d.file(name)
	before := len(f.live)
	f.live = fn(f.live)
	return len(f.live) - before, nil
}

// replace swaps the named file's content for p in one step — what
// Truncate followed by Append(p) leaves behind: nothing durable, p in the
// page cache until the next Sync. The disk takes ownership of p; the
// caller must not touch it again.
func (d *Disk) replace(name string, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	f := d.file(name)
	f.live, f.durable = p, 0
	return nil
}

// Sync makes the named file's cached bytes durable, charging the fsync
// latency to the host clock. It moves the durable length and copies
// nothing. Syncing a missing file is a no-op (the matching open would
// have created it empty).
func (d *Disk) Sync(name string) error {
	d.mu.Lock()
	if d.crashed {
		d.mu.Unlock()
		return ErrCrashed
	}
	if f := d.files[name]; f != nil {
		f.durable = len(f.live)
	}
	d.syncs++
	cost := d.cfg.SyncLatency
	clock := d.cfg.Clock
	d.mu.Unlock()
	clock.Advance(cost)
	return nil
}

// Syncs returns how many fsyncs the disk has served.
func (d *Disk) Syncs() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs
}

// ReadFile returns the live content of a file (durable prefix plus any
// unsynced tail). The copy is the caller's.
func (d *Disk) ReadFile(name string) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return nil, ErrNoFile
	}
	return append([]byte(nil), f.live...), nil
}

// DurableBytes returns what would survive a crash right now: the synced
// prefix of the named file (nil and false when the file has never been
// synced or does not exist).
func (d *Disk) DurableBytes(name string) ([]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), f.live[:f.durable]...), true
}

// Rename atomically renames a file, replacing any target. It is a
// journaled metadata operation: durable immediately, and the renamed
// file keeps only its durable content (rename after sync is the
// snapshot-publication idiom).
func (d *Disk) Rename(oldName, newName string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	f, ok := d.files[oldName]
	if !ok {
		return ErrNoFile
	}
	delete(d.files, oldName)
	d.files[newName] = f
	return nil
}

// Truncate empties a file (journaled metadata; durable immediately). The
// file keeps its buffer, so a log that is truncated and refilled does not
// regrow from nothing each time.
func (d *Disk) Truncate(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	f := d.file(name)
	f.live, f.durable = f.live[:0], 0
	return nil
}

// Remove deletes a file (journaled metadata; durable immediately).
func (d *Disk) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	if _, ok := d.files[name]; !ok {
		return ErrNoFile
	}
	delete(d.files, name)
	return nil
}

// List returns the file names, sorted.
func (d *Disk) List() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.files))
	for n := range d.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Crash simulates losing power: every file's unsynced page-cache tail is
// discarded — except that, per torn, up to torn.Keep bytes of the named
// file's unsynced tail may persist (a torn write: the drive got part of
// the in-flight sectors down before the power died). Further operations
// fail with ErrCrashed until Reopen.
func (d *Disk) Crash(torn ...TornWrite) {
	d.mu.Lock()
	defer d.mu.Unlock()
	keep := make(map[string]int, len(torn))
	for _, t := range torn {
		keep[t.File] = t.Keep
	}
	for name, f := range d.files {
		k := keep[name]
		if tail := len(f.live) - f.durable; k > tail {
			k = tail
		}
		f.durable += k
		f.live = f.live[:f.durable]
	}
	d.crashed = true
}

// TornWrite names a file whose unsynced tail partially survives a Crash.
type TornWrite struct {
	// File is the file with a write in flight at the moment of the crash.
	File string
	// Keep is how many unsynced bytes made it to the platter.
	Keep int
}

// Reopen brings a crashed disk back: durable content is what Crash left.
// Charges the recovery read scan (total durable bytes over the read
// bandwidth) to the host clock and returns the charged duration.
func (d *Disk) Reopen() time.Duration {
	d.mu.Lock()
	d.crashed = false
	var total int
	for _, f := range d.files {
		total += f.durable
	}
	cost := time.Duration(float64(total) / readBandwidth * float64(time.Second))
	clock := d.cfg.Clock
	d.mu.Unlock()
	clock.Advance(cost)
	return cost
}

// Crashed reports whether the disk is between a Crash and a Reopen.
func (d *Disk) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}
