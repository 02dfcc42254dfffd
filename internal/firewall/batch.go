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
package firewall

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"tax/internal/telemetry"
)

var batchMagic = [4]byte{'T', 'A', 'X', 'G'}

const batchVersion = 1

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
// (uvarint length, frame) entries awaiting a container flush.
type linkBatch struct {
	mu      sync.Mutex
	addr    string
	buf     []byte
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
	lb.buf = binary.AppendUvarint(lb.buf, uint64(len(frame)))
	lb.buf = append(lb.buf, frame...)
	lb.frames++
	lb.gFrames.Set(int64(lb.frames))
	lb.gBytes.Set(int64(len(lb.buf)))
	aged := b.fw.clock.Now()-lb.firstAt >= b.cfg.MaxDelay
	if inline || aged || lb.frames >= b.cfg.MaxFrames || len(lb.buf) >= b.cfg.MaxBytes {
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
func (b *batcher) flushLocked(lb *linkBatch) error {
	frames, body := lb.reset()
	lb.mu.Unlock()
	if frames == 0 {
		return nil
	}

	container := make([]byte, 0, len(batchMagic)+2+binary.MaxVarintLen64+len(body))
	container = append(container, batchMagic[:]...)
	container = binary.AppendUvarint(container, batchVersion)
	container = binary.AppendUvarint(container, uint64(frames))
	container = append(container, body...)

	// The container rides the host-default retry policy: per-briefcase
	// _RETRY folders cannot apply to a frame that shares its transport
	// message with others.
	fw := b.fw
	var m mediation
	m.principal, m.addr = fw.cfg.SystemPrincipal, lb.addr
	if _, err := fw.transmit(context.Background(), &m, container, fw.cfg.ForwardRetry, "batch flush "); err != nil {
		fw.record(vFailed, "", m.principal, lb.addr, fmt.Sprintf("batch flush of %d frames failed: %v", frames, err), nil)
		return fmt.Errorf("firewall: batch flush to %s: %w", lb.addr, err)
	}
	fw.ctr.batchFlushes.Inc()
	fw.ctr.batchFrames.Add(int64(frames))
	fw.record(vNote, telemetry.EventFlush, fw.cfg.SystemPrincipal, lb.addr,
		fmt.Sprintf("%d frames, %d bytes", frames, len(container)), nil)
	return nil
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
// was queued. Callers hold lb.mu.
func (lb *linkBatch) reset() (frames int, body []byte) {
	if lb.timer != nil {
		lb.timer.Stop()
		lb.timer = nil
	}
	frames, body = lb.frames, lb.buf
	lb.buf, lb.frames = nil, 0
	lb.gFrames.Set(0)
	lb.gBytes.Set(0)
	return frames, body
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
