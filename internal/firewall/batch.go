// Batched mediation: the firewall's remote fast path.
//
// Every remote forward used to be one transport message, so a fleet
// chattering over one link paid the link's per-message overhead per
// briefcase. With batching enabled (Config.Batch), Send still mediates
// every briefcase individually — policy checks, sender stamping,
// sealing — but instead of handing each sealed frame to the node it
// appends the frame to a per-destination-link queue. The queue is
// flushed as one container message when it reaches a byte or frame
// threshold, when its oldest frame exceeds a virtual-time age bound,
// when a real-time safety timer fires (so a queued RPC request cannot
// deadlock behind an idle link), or when an agent transfer is enqueued
// (Go/Spawn keep synchronous error reporting).
//
// The receiving firewall unpacks the container and runs every inner
// frame through the full inbound path — dedup, channel authentication,
// transfer authentication, routing policy — exactly as if each had
// arrived alone. Batching is therefore transport-level coalescing
// below the reference monitor, not a bypass of it; DESIGN §7 records
// the argument.
//
// Container wire format:
//
//	magic   [4]byte "TAXG"
//	version uvarint 1
//	count   uvarint
//	count × (frameLen uvarint, frame bytes)
//
// A link's queue is the container under construction: frames append
// after a region reserved for the longest header, and a flush writes
// the real header right-aligned into it, so the container is sent from
// the queue's own buffer without a copy (DESIGN §7.1).
package firewall

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"tax/internal/telemetry"
)

var batchMagic = [4]byte{'T', 'A', 'X', 'G'}

const batchVersion = 1

// batchHeaderRoom is the region reserved at the front of every link
// queue for the longest container header: magic, the one-byte version
// uvarint and a count uvarint.
const batchHeaderRoom = len(batchMagic) + 1 + binary.MaxVarintLen64

// Limits applied when unpacking a container from the network, matching
// the briefcase decode limits in spirit: bound resource use before any
// authentication has happened.
const (
	maxBatchFrames    = 1 << 16
	maxBatchFrameSize = 1 << 26
)

// Defaults for BatchConfig fields left zero.
const (
	DefaultBatchMaxBytes   = 32 << 10
	DefaultBatchMaxFrames  = 16
	DefaultBatchMaxDelay   = 200 * time.Microsecond
	DefaultBatchFlushEvery = 500 * time.Microsecond
)

// BatchConfig enables and tunes batched mediation. The zero value of
// each field selects its default; FlushEvery < 0 disables the
// real-time safety timer (deterministic benchmarks flush on thresholds
// and explicitly).
type BatchConfig struct {
	// MaxBytes flushes a link's queue once its accumulated frame bytes
	// reach this bound.
	MaxBytes int
	// MaxFrames flushes a link's queue once this many frames are queued.
	MaxFrames int
	// MaxDelay is the virtual-time age bound: a Send that finds the
	// link's oldest queued frame older than this flushes inline. It is
	// checked against the host clock, so simulated deployments enforce
	// it without waiting.
	MaxDelay time.Duration
	// FlushEvery is a real-time safety flush per link: a queue that no
	// later Send flushes is pushed out after this long, bounding the
	// latency a batched frame can silently gain. Negative disables it.
	FlushEvery time.Duration
}

func (c BatchConfig) withDefaults() BatchConfig {
	return BatchConfig{
		MaxBytes:   cmp.Or(c.MaxBytes, DefaultBatchMaxBytes),
		MaxFrames:  cmp.Or(c.MaxFrames, DefaultBatchMaxFrames),
		MaxDelay:   cmp.Or(c.MaxDelay, DefaultBatchMaxDelay),
		FlushEvery: cmp.Or(c.FlushEvery, DefaultBatchFlushEvery),
	}
}

// batcher holds the per-link queues of a batching firewall.
type batcher struct {
	fw  *Firewall
	cfg BatchConfig

	mu    sync.Mutex
	links map[string]*linkBatch
}

// linkBatch is one destination link's queue: the concatenated
// (uvarint length, frame) entries awaiting a container flush, after
// batchHeaderRoom reserved bytes.
type linkBatch struct {
	mu      sync.Mutex
	addr    string
	buf     []byte // nil, or batchHeaderRoom bytes and the queued entries
	hint    int    // what a new buf is allocated at: the link's last batch length
	frames  int
	firstAt time.Duration // host virtual time the oldest frame was queued
	timer   *time.Timer
	gFrames *telemetry.Gauge // fw.batch_queued{host,link}
	gBytes  *telemetry.Gauge // fw.batch_queued_bytes{host,link}
}

func newBatcher(fw *Firewall, cfg BatchConfig) *batcher {
	return &batcher{fw: fw, cfg: cfg.withDefaults(), links: make(map[string]*linkBatch)}
}

func (b *batcher) link(addr string) *linkBatch {
	b.mu.Lock()
	defer b.mu.Unlock()
	lb, ok := b.links[addr]
	if !ok {
		reg := b.fw.tel.Registry()
		lb = &linkBatch{
			addr:    addr,
			gFrames: reg.Gauge("fw.batch_queued", "host", b.fw.cfg.HostName, "link", addr),
			gBytes:  reg.Gauge("fw.batch_queued_bytes", "host", b.fw.cfg.HostName, "link", addr),
		}
		b.links[addr] = lb
	}
	return lb
}

// enqueue appends one sealed frame to addr's queue and flushes when a
// threshold is met or the caller demands it (inline=true: agent
// transfers and anything else that needs the flush error now). The
// frame bytes are copied into the queue, so callers may recycle frame
// immediately.
func (b *batcher) enqueue(addr string, frame []byte, inline bool) error {
	lb := b.link(addr)
	lb.mu.Lock()
	if lb.frames == 0 {
		lb.firstAt = b.fw.clock.Now()
		if b.cfg.FlushEvery > 0 {
			// The safety timer has no caller to return a flush error to:
			// it surfaces through the audit log only.
			lb.timer = time.AfterFunc(b.cfg.FlushEvery, func() { _ = b.flushLink(lb) })
		}
	}
	if lb.buf == nil {
		// Sized for the link's last batch; Grow rounds up to the
		// allocator's size class, so a slightly longer batch still fits.
		lb.buf = slices.Grow([]byte(nil), max(lb.hint, batchHeaderRoom))[:batchHeaderRoom]
	}
	lb.buf = binary.AppendUvarint(lb.buf, uint64(len(frame)))
	lb.buf = append(lb.buf, frame...)
	lb.frames++
	queued := len(lb.buf) - batchHeaderRoom
	lb.gFrames.Set(int64(lb.frames))
	lb.gBytes.Set(int64(queued))
	aged := b.fw.clock.Now()-lb.firstAt >= b.cfg.MaxDelay
	if inline || aged || lb.frames >= b.cfg.MaxFrames || queued >= b.cfg.MaxBytes {
		return b.flushLocked(lb)
	}
	lb.mu.Unlock()
	return nil
}

// flushLink flushes one link's queue now (safety timer, FlushBatches,
// Close).
func (b *batcher) flushLink(lb *linkBatch) error {
	lb.mu.Lock()
	return b.flushLocked(lb)
}

// flushLocked sends lb's queue as one container and resets the queue.
// It is entered holding lb.mu and releases it before touching the
// network, so a slow or retrying link stalls neither later enqueues to
// other links nor the timer machinery.
//
// The header is written into the queue's reserved region, and the
// container leaves from the queue's own buffer: by ownership to a
// zero-copy transport, which keeps it, or through a copying Send, which
// is done with it on return — so it goes back to the link for the next
// batch.
func (b *batcher) flushLocked(lb *linkBatch) error {
	frames, buf := lb.reset()
	lb.mu.Unlock()
	if frames == 0 {
		return nil
	}
	container := buf[putBatchHeader(buf, frames):]

	// The container rides the host-default retry policy: per-briefcase
	// _RETRY folders cannot apply to a frame that shares its transport
	// message with others.
	fw := b.fw
	var m mediation
	m.principal, m.addr = fw.cfg.SystemPrincipal, lb.addr
	_, err := fw.transmit(&m, container, fw.cfg.ForwardRetry, "batch flush ")
	if _, owned := fw.cfg.Node.(ownedSender); !owned {
		lb.recycle(buf)
	}
	if err != nil {
		fw.record(vFailed, "", m.principal, lb.addr, fmt.Sprintf("batch flush of %d frames failed: %v", frames, err), nil)
		return fmt.Errorf("firewall: batch flush to %s: %w", lb.addr, err)
	}
	fw.ctr.batchFlushes.Inc()
	fw.ctr.batchFrames.Add(int64(frames))
	if fw.eventsOn() {
		fw.record(vNote, telemetry.EventFlush, fw.cfg.SystemPrincipal, lb.addr,
			fmt.Sprintf("%d frames, %d bytes", frames, len(container)), nil)
	}
	return nil
}

// putBatchHeader writes the container header for frames right-aligned
// into buf's reserved region and returns the offset it starts at, so
// buf[off:] is the container.
func putBatchHeader(buf []byte, frames int) (off int) {
	var count [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(count[:], uint64(frames))
	off = batchHeaderRoom - n - 1 - len(batchMagic)
	hdr := buf[off:batchHeaderRoom]
	copy(hdr, batchMagic[:])
	hdr[len(batchMagic)] = batchVersion
	copy(hdr[len(batchMagic)+1:], count[:n])
	return off
}

// flushAll flushes every link (FlushBatches, Close).
func (b *batcher) flushAll() error {
	b.mu.Lock()
	links := make([]*linkBatch, 0, len(b.links))
	for _, lb := range b.links {
		links = append(links, lb)
	}
	b.mu.Unlock()
	var first error
	for _, lb := range links {
		if err := b.flushLink(lb); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// discardAll drops every queued frame without sending (CrashWipe: the
// machine's memory is gone, and so are frames it had not yet flushed).
func (b *batcher) discardAll() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, lb := range b.links {
		lb.mu.Lock()
		lb.reset()
		lb.mu.Unlock()
	}
}

// reset empties the queue, disarms its safety timer and returns what
// was queued: buf is the queue's buffer, reserved region included, and
// its length is what the link's next buffer is allocated at. An empty
// queue keeps its (recycled) buffer. Callers hold lb.mu.
func (lb *linkBatch) reset() (frames int, buf []byte) {
	if lb.timer != nil {
		lb.timer.Stop()
		lb.timer = nil
	}
	if lb.frames == 0 {
		return 0, nil
	}
	frames, buf = lb.frames, lb.buf
	lb.hint = len(buf)
	lb.buf, lb.frames = nil, 0
	lb.gFrames.Set(0)
	lb.gBytes.Set(0)
	return frames, buf
}

// recycle gives a flushed buffer the transport is done with back to the
// link — unless a newer batch already has one, or this batch used under
// half of it, so one jumbo frame is not held for the link's lifetime.
func (lb *linkBatch) recycle(buf []byte) {
	lb.mu.Lock()
	if lb.buf == nil && 2*len(buf) >= cap(buf) {
		lb.buf = buf[:batchHeaderRoom]
	}
	lb.mu.Unlock()
}

// FlushBatches pushes every link's queued frames out now. It is a
// no-op without batching. Deterministic benchmarks and tests call it
// instead of depending on the real-time safety timer.
func (fw *Firewall) FlushBatches() error {
	if fw.batch == nil {
		return nil
	}
	return fw.batch.flushAll()
}

// isBatchContainer reports whether a payload is a batch container
// frame. Briefcase frames start with "TAXB", containers with "TAXG",
// so the two are unambiguous at the first four bytes.
func isBatchContainer(payload []byte) bool {
	return len(payload) >= len(batchMagic) && string(payload[:len(batchMagic)]) == string(batchMagic[:])
}

// unbatch unpacks an inbound container and feeds every inner frame
// through the full inbound path individually — the single reference
// monitor mediates each frame exactly as if it had arrived alone. A
// container inside a container is rejected: the format is one level
// deep by construction, so nesting is hostile input.
func (fw *Firewall) unbatch(from string, payload []byte) {
	defect, detail := walkContainer(payload, func(frame []byte) bool {
		if isBatchContainer(frame) {
			fw.record(vDropped, "", "", "", "nested batch container from "+from, nil)
		} else {
			fw.ctr.batchRecv.Inc()
			fw.inbound(from, frame)
		}
		return true
	})
	if defect != "" {
		fw.record(vDropped, "", "", "", defect+" from "+from+detail, nil)
	}
}

// walkContainer is the one parser of the container wire format (the
// caller has checked the magic). It hands fn each inner frame, nested
// containers included, until fn returns false or the bytes run out, and
// names what is wrong with a malformed container — defect, plus the
// detail that follows the peer's address in the audit record. Frames
// ahead of a defect have been handed over by then. Both results are
// empty for a well-formed container and for a walk fn stopped.
func walkContainer(payload []byte, fn func(frame []byte) bool) (defect, detail string) {
	rest := payload[len(batchMagic):]
	ver, n := binary.Uvarint(rest)
	if n <= 0 || ver != batchVersion {
		return "bad batch container version", ""
	}
	rest = rest[n:]
	count, n := binary.Uvarint(rest)
	if n <= 0 || count == 0 || count > maxBatchFrames {
		return "bad batch container count", ""
	}
	rest = rest[n:]
	for i := uint64(0); i < count; i++ {
		flen, n := binary.Uvarint(rest)
		if n <= 0 || flen > maxBatchFrameSize || uint64(len(rest[n:])) < flen {
			return "truncated batch container", fmt.Sprintf(" (frame %d/%d)", i+1, count)
		}
		frame := rest[n : n+int(flen)]
		rest = rest[n+int(flen):]
		if !fn(frame) {
			return "", ""
		}
	}
	if len(rest) != 0 {
		return "batch container", fmt.Sprintf(" has %d trailing bytes", len(rest))
	}
	return "", ""
}
