package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tax/internal/simnet"
	"tax/internal/vclock"
	"tax/internal/websim"
)

// layer names a span: which boundary the decorator sits on.
type layer uint8

const (
	spanOp      layer = iota // one op, opened by the harness
	spanSend                 // simnet.Node.Send / SendOwned
	spanInbound              // the simnet.Node inbound handler (the firewall's)
	spanHandler              // a vm.Handler or service agent body
	spanGo                   // Context.Go call to arrival on the next host
	spanFetch                // websim.Fetcher.Fetch
	spanLayers               // count of the above
)

var layerNames = [spanLayers]string{"op", "simnet.send", "firewall.inbound", "agent.handler", "agent.go", "websim.fetch"}

// span is one timed call into a layer, recorded from the benchmark's
// own decorators around the public interfaces (simnet.Node,
// websim.Fetcher, vm.Handler) — nothing inside the program is touched.
// It holds no pointers, so the buffer can live off the Go heap.
type span struct {
	layer  layer
	start  int64 // ns since the traced pass began
	end    int64
	parent int32 // index of the causing span, -1 for an op
	op     int32 // the op in progress when the span began
}

// tracer keeps spans in a buffer allocated before the traced pass and
// writes them out when the benchmark ends. A nil *tracer records
// nothing, so the workloads call it unconditionally and the untraced
// pass pays a nil check.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
	enabled atomic.Bool  // spans are recorded only while set
	op      atomic.Int32 // current op id
	root    atomic.Int32 // span index of the current op, -1 between ops
}

func newTracer(capacity int) *tracer {
	t := &tracer{epoch: time.Now(), spans: offHeap[span](capacity)}
	t.root.Store(-1)
	return t
}

// begin opens a span; parent < -1 means "the current op". It returns
// the span's index, -1 when the tracer is off or the buffer is full.
func (t *tracer) begin(l layer, parent int32) int32 {
	if t == nil || !t.enabled.Load() {
		return -1
	}
	now := int64(time.Since(t.epoch))
	if parent < -1 {
		parent = t.root.Load()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{layer: l, start: now, parent: parent, op: t.op.Load()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// record stores a span whose ends the caller timed itself.
func (t *tracer) record(l layer, start, end time.Time) {
	id := t.begin(l, currentOp)
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].start = int64(start.Sub(t.epoch))
	t.spans[id].end = int64(end.Sub(t.epoch))
	t.mu.Unlock()
}

const currentOp = int32(-2)

// beginOp opens the root span of the next op.
func (t *tracer) beginOp() int32 {
	if t == nil {
		return -1
	}
	t.op.Add(1)
	id := t.begin(spanOp, -1)
	t.root.Store(id)
	return id
}

func (t *tracer) endOp(id int32) {
	if t == nil {
		return
	}
	t.end(id)
	t.root.Store(-1)
}

// layerStat aggregates the spans of one layer.
type layerStat struct {
	Calls  int   `json:"calls"`
	Total  int64 `json:"total_ns"`
	SelfNS int64 `json:"self_ns"`
}

// selfTimes computes, per layer, the call count, total time and self
// time: a span's duration minus the part of its interval that its child
// spans cover (overlapping children are merged first). Layers with no
// closed span are absent.
func selfTimes(spans []span) map[string]*layerStat {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 && s.end > s.start {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[string]*layerStat)
	for i, s := range spans {
		if s.end <= s.start {
			continue // never closed
		}
		st := out[layerNames[s.layer]]
		if st == nil {
			st = &layerStat{}
			out[layerNames[s.layer]] = st
		}
		dur := s.end - s.start
		st.Calls++
		st.Total += dur
		st.SelfNS += dur - covered(children[int32(i)], s.start, s.end)
	}
	return out
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	end := lo
	for _, c := range iv {
		a, b := c[0], c[1]
		if a < end {
			a = end
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			end = b
		}
	}
	return sum
}

// traceFileSpans caps the span list written to disk; the per-layer
// aggregate in the same file always covers every span.
const traceFileSpans = 50_000

// write stores the trace under benchmark/out/.
func (t *tracer) write(workload string, layers map[string]*layerStat) error {
	type spanJSON struct {
		Name   string `json:"name"`
		Start  int64  `json:"start"`
		End    int64  `json:"end"`
		Parent int32  `json:"parent"`
		Op     int32  `json:"op_id"`
	}
	n := len(t.spans)
	if n > traceFileSpans {
		n = traceFileSpans
	}
	first := make([]spanJSON, n)
	for i, s := range t.spans[:n] {
		first[i] = spanJSON{layerNames[s.layer], s.start, s.end, s.parent, s.op}
	}
	doc := struct {
		Workload string                `json:"workload"`
		Spans    int                   `json:"spans_recorded"`
		Dropped  int                   `json:"spans_dropped"`
		Layers   map[string]*layerStat `json:"layers"`
		First    []spanJSON            `json:"spans"`
	}{workload, len(t.spans), t.dropped, layers, first}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	dir := filepath.Join("benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}

// tracedNode decorates a simnet.Node: every Send and every inbound
// handler call becomes a span. A Send made while this node's inbound
// handler is running (a relay forwarding) is that handler's child.
type tracedNode struct {
	simnet.Node
	tr      *tracer
	inbound atomic.Int32 // open inbound span on this node, -1 when none
}

// ownedSender is simnet's zero-copy send, which the firewall's relay
// path type-asserts for; the decorator must not hide it.
type ownedSender interface {
	SendOwned(to string, payload []byte) error
}

// traceNode wraps n when tr is set.
func traceNode(n simnet.Node, tr *tracer) simnet.Node {
	if tr == nil {
		return n
	}
	t := &tracedNode{Node: n, tr: tr}
	t.inbound.Store(-1)
	if _, ok := n.(ownedSender); ok {
		return &tracedOwnedNode{t}
	}
	return t
}

func (n *tracedNode) parent() int32 {
	if p := n.inbound.Load(); p >= 0 {
		return p
	}
	return currentOp
}

func (n *tracedNode) Send(to string, payload []byte) error {
	id := n.tr.begin(spanSend, n.parent())
	err := n.Node.Send(to, payload)
	n.tr.end(id)
	return err
}

func (n *tracedNode) SetHandler(h func(from string, payload []byte)) {
	n.Node.SetHandler(func(from string, payload []byte) {
		id := n.tr.begin(spanInbound, currentOp)
		n.inbound.Store(id)
		h(from, payload)
		n.inbound.Store(-1)
		n.tr.end(id)
	})
}

type tracedOwnedNode struct{ *tracedNode }

func (n *tracedOwnedNode) SendOwned(to string, payload []byte) error {
	id := n.tr.begin(spanSend, n.parent())
	err := n.Node.(ownedSender).SendOwned(to, payload)
	n.tr.end(id)
	return err
}

// tracedFetcher decorates a websim.Fetcher: every Fetch is a span.
type tracedFetcher struct {
	websim.Fetcher
	tr *tracer
}

func (f *tracedFetcher) Fetch(url string) (*websim.Response, error) {
	id := f.tr.begin(spanFetch, currentOp)
	resp, err := f.Fetcher.Fetch(url)
	f.tr.end(id)
	return resp, err
}

// tracedForkable keeps the robot on its staged path (acquire on forks,
// then replay), which it only takes for a ForkableFetcher: the forks
// are decorated too.
type tracedForkable struct {
	tracedFetcher
	parent websim.ForkableFetcher
}

func traceFetcher(f websim.ForkableFetcher, tr *tracer) websim.ForkableFetcher {
	return &tracedForkable{tracedFetcher{f, tr}, f}
}

func (f *tracedForkable) Fork(clock vclock.Clock) websim.Fetcher {
	return &tracedFetcher{f.parent.Fork(clock), f.tr}
}

func (f *tracedForkable) Replay(resp *websim.Response, cost time.Duration) {
	f.parent.Replay(resp, cost)
}
