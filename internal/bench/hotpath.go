package bench

import (
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/identity"
	"tax/internal/simnet"
)

// HotpathCodecResult is one codec measurement for BENCH_hotpath.json.
// Only allocation counts are recorded — they are exact integers from
// the runtime's malloc counter, so the JSON is byte-identical run to
// run. Wall-clock ns/op is benchmark/'s briefcase.encode_*_ns and
// decode_*_ns.
type HotpathCodecResult struct {
	// Op is "encode" or "decode".
	Op string `json:"op"`
	// Codec is "reference" (the frozen pre-optimization codec) or
	// "fast" (the pooled single-buffer encoder / lazy decoder).
	Codec string `json:"codec"`
	// AllocsPerOp is the exact allocation count of one operation on the
	// case-study-sized briefcase.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// FrameBytes is the encoded frame size (identical across codecs —
	// the fast path is wire-compatible).
	FrameBytes int `json:"frame_bytes"`
}

// HotpathMediationResult is one (fleet width, batching) point of the
// mediation throughput sweep. Throughput is virtual-clock messages per
// second: the whole sweep runs on one driver goroutine, so every clock
// advance is a deterministic function of the message stream.
type HotpathMediationResult struct {
	// Width is the number of destination hosts the driver round-robins
	// over.
	Width int `json:"width"`
	// Batched reports whether outbound mediation coalesced frames.
	Batched bool `json:"batched"`
	// Messages is the number of mediated briefcases.
	Messages int `json:"messages"`
	// BatchFlushes / BatchFrames are the sender's fw.batch_* counters
	// (zero with batching off).
	BatchFlushes int64 `json:"batch_flushes"`
	BatchFrames  int64 `json:"batch_frames"`
	// VirtualMS is the sender host's virtual-clock cost of mediating
	// the stream.
	VirtualMS float64 `json:"virtual_ms"`
	// MsgsPerVirtualSec is Messages divided by the virtual elapsed time.
	MsgsPerVirtualSec float64 `json:"msgs_per_virtual_sec"`
}

// HotpathResult is the BENCH_hotpath.json document.
type HotpathResult struct {
	Codec     []HotpathCodecResult     `json:"codec"`
	Mediation []HotpathMediationResult `json:"mediation"`
	// Forwarding is the 3-hop zero-copy forwarding throughput sweep
	// (hotpath_forward.go): relays route wire bytes verbatim off header
	// peeks, unbatched and as whole containers.
	Forwarding []HotpathForwardingResult `json:"forwarding"`
	// Path is the exact per-stage allocation budget of the forwarded
	// send→route→deliver path; the path_alloc_test ceilings guard it.
	Path []HotpathPathResult `json:"path"`
	// GroupCommit is the WAL group-commit fsync amortization sweep.
	GroupCommit []HotpathGroupCommitResult `json:"group_commit"`
}

// hotpathBriefcase builds the workload briefcase: a webbot mid-crawl,
// sized after the case study (results for ~120 pages plus itinerary and
// status folders, ~5 KB encoded).
func hotpathBriefcase() *briefcase.Briefcase {
	bc := briefcase.New()
	bc.SetString(briefcase.FolderCode, "webbot")
	bc.SetString(briefcase.FolderStatus, "crawling depth=3")
	args := bc.Ensure(briefcase.FolderArgs)
	args.AppendString("maxdepth=4")
	args.AppendString("maxpages=917")
	hosts := bc.Ensure(briefcase.FolderHosts)
	for _, h := range []string{"tacoma://w2//vm_go", "tacoma://w3//vm_go", "tacoma://home//vm_go"} {
		hosts.AppendString(h)
	}
	results := bc.Ensure(briefcase.FolderResults)
	for i := 0; i < 120; i++ {
		results.AppendString(fmt.Sprintf("/page-%03d.html|200|%5d bytes|links=%2d", i, 1024+i*17, i%23))
	}
	return bc
}

// hotpathCodec measures exact allocations for both codecs on the
// workload briefcase. GC is paused so the encoder's buffer pool is not
// drained mid-measurement.
func hotpathCodec() ([]HotpathCodecResult, error) {
	bc := hotpathBriefcase()
	frame := bc.Encode()
	if ref := briefcase.ReferenceEncode(bc); len(ref) != len(frame) {
		return nil, fmt.Errorf("bench: hotpath codecs disagree: fast %d bytes, reference %d", len(frame), len(ref))
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 200
	cases := []struct {
		op, codec string
		fn        func()
	}{
		{"encode", "reference", func() { _ = briefcase.ReferenceEncode(bc) }},
		{"encode", "fast", func() {
			f, release := bc.EncodePooled()
			_ = f
			release()
		}},
		{"decode", "reference", func() { _, _ = briefcase.ReferenceDecode(frame) }},
		{"decode", "fast", func() { _, _ = briefcase.Decode(frame) }},
	}
	var results []HotpathCodecResult
	for _, c := range cases {
		results = append(results, HotpathCodecResult{
			Op:          c.op,
			Codec:       c.codec,
			AllocsPerOp: testing.AllocsPerRun(runs, c.fn),
			FrameBytes:  len(frame),
		})
	}
	return results, nil
}

// hotpathMediation mediates a fixed message stream from one sender host
// to width destination hosts, with and without batching, and reports
// virtual-clock throughput. One driver goroutine performs every send
// and flush, so the sender clock advances identically on every run:
// the stream is sent in epochs, each epoch flushed and then drained
// before the next, bounding mailbox depth well under capacity.
func hotpathMediation(width int, batched bool) (HotpathMediationResult, error) {
	const (
		epoch    = 128 // messages per send/flush/drain cycle
		epochs   = 15
		messages = epoch * epochs
	)
	r := HotpathMediationResult{Width: width, Batched: batched, Messages: messages}

	net := simnet.New(simnet.LAN100)
	defer func() { _ = net.Close() }()
	h1, err := net.AddHost("h1")
	if err != nil {
		return r, err
	}
	sysP, err := identity.NewPrincipal("system")
	if err != nil {
		return r, err
	}
	trust := &identity.TrustStore{}
	trust.AddPrincipal(sysP, identity.System)
	cfg := firewall.Config{
		HostName: "h1", Node: h1, Trust: trust, SystemPrincipal: "system",
	}
	if batched {
		cfg.Batch = &firewall.BatchConfig{
			MaxFrames:  16,
			MaxBytes:   1 << 20,
			MaxDelay:   time.Hour, // age flushes would depend on epoch timing
			FlushEvery: -1,        // no real-time timer: virtual determinism
		}
	}
	fw1, err := firewall.New(cfg)
	if err != nil {
		return r, err
	}
	defer func() { _ = fw1.Close() }()
	sender, err := fw1.Register("vm", "system", "src")
	if err != nil {
		return r, err
	}

	recvs := make([]*firewall.Registration, width)
	for i := 0; i < width; i++ {
		hostName := fmt.Sprintf("w%d", i)
		host, err := net.AddHost(hostName)
		if err != nil {
			return r, err
		}
		fw, err := firewall.New(firewall.Config{
			HostName: hostName, Node: host, Trust: trust, SystemPrincipal: "system",
		})
		if err != nil {
			return r, err
		}
		defer func() { _ = fw.Close() }()
		if recvs[i], err = fw.Register("vm", "system", "dst"); err != nil {
			return r, err
		}
	}

	clock := fw1.Clock()
	start := clock.Now()
	sent := 0
	for e := 0; e < epochs; e++ {
		for m := 0; m < epoch; m++ {
			bc := briefcase.New()
			bc.SetString("BODY", fmt.Sprintf("crawl result %06d padded to a plausible briefcase payload size for the mediation hot path", sent))
			bc.SetString(briefcase.FolderSysTarget, fmt.Sprintf("tacoma://w%d/system/dst", sent%width))
			if err := fw1.Send(sender.GlobalURI(), bc); err != nil {
				return r, fmt.Errorf("bench: hotpath send %d: %w", sent, err)
			}
			sent++
		}
		if err := fw1.FlushBatches(); err != nil {
			return r, fmt.Errorf("bench: hotpath flush: %w", err)
		}
		for i := 0; i < width; i++ {
			for k := 0; k < epoch/width; k++ {
				if _, err := recvs[i].Recv(5 * time.Second); err != nil {
					return r, fmt.Errorf("bench: hotpath drain w%d: %w", i, err)
				}
			}
		}
	}
	elapsed := clock.Now() - start
	reg := fw1.Telemetry().Registry()
	r.BatchFlushes = reg.Counter("fw.batch_flushes", "host", "h1").Value()
	r.BatchFrames = reg.Counter("fw.batch_frames", "host", "h1").Value()
	r.VirtualMS = float64(elapsed.Microseconds()) / 1000
	if s := elapsed.Seconds(); s > 0 {
		r.MsgsPerVirtualSec = float64(messages) / s
	}
	return r, nil
}

// Hotpath runs the fast-path benchmark: codec allocations for the
// pooled encoder and lazy decoder against the frozen reference codec,
// and mediated message throughput (virtual-clock) with batching on and
// off across fleet widths. Everything recorded is exact — allocation
// counts and virtual-clock arithmetic — so reruns are byte-identical.
func Hotpath() (*Table, any, error) {
	codec, err := hotpathCodec()
	if err != nil {
		return nil, nil, err
	}
	res := &HotpathResult{Codec: codec}

	for _, width := range []int{1, 4, 16} {
		for _, batched := range []bool{false, true} {
			p, err := hotpathMediation(width, batched)
			if err != nil {
				return nil, nil, err
			}
			res.Mediation = append(res.Mediation, p)
		}
	}

	for _, batched := range []bool{false, true} {
		f, err := hotpathForwarding(batched)
		if err != nil {
			return nil, nil, err
		}
		res.Forwarding = append(res.Forwarding, f)
	}

	path, err := hotpathPath()
	if err != nil {
		return nil, nil, err
	}
	res.Path = path

	for _, groupMax := range []int{1, 8, 64} {
		g, err := hotpathGroupCommit(groupMax)
		if err != nil {
			return nil, nil, err
		}
		res.GroupCommit = append(res.GroupCommit, g)
	}

	t := &Table{
		Title:  "HOTPATH — zero-copy codec, batched mediation, forwarding, group commit",
		Note:   "codec: case-study briefcase, allocs exact; mediation + 3-hop forwarding: virtual-clock msgs/s, lockstep driver; group commit: fsyncs per txn, virtual clock",
		Header: []string{"measurement", "allocs/op", "msgs/vsec", "detail"},
	}
	for _, c := range res.Codec {
		t.Rows = append(t.Rows, []string{
			c.Op + " " + c.Codec,
			fmt.Sprintf("%.0f", c.AllocsPerOp),
			"",
			fmt.Sprintf("%d B frame", c.FrameBytes),
		})
	}
	for _, p := range res.Mediation {
		mode := "unbatched"
		detail := ""
		if p.Batched {
			mode = "batched"
			detail = fmt.Sprintf("%d flushes / %d frames", p.BatchFlushes, p.BatchFrames)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("mediate w=%d %s", p.Width, mode),
			"",
			fmt.Sprintf("%.0f", p.MsgsPerVirtualSec),
			detail,
		})
	}
	for _, f := range res.Forwarding {
		mode := "unbatched"
		detail := fmt.Sprintf("%d relayed/hop", f.RelayedPerHop)
		if f.Batched {
			mode = "batched"
			detail = fmt.Sprintf("%d relayed/hop in %d containers", f.RelayedPerHop, f.ContainersPerHop)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("forward %dhop %s", f.Hops, mode),
			"",
			fmt.Sprintf("%.0f", f.MsgsPerVirtualSec),
			detail,
		})
	}
	for _, p := range res.Path {
		t.Rows = append(t.Rows, []string{
			"path " + p.Stage,
			fmt.Sprintf("%.0f", p.AllocsPerOp),
			"",
			"full-stage allocs, synchronous transport",
		})
	}
	for _, g := range res.GroupCommit {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("group commit max=%d", g.GroupMax),
			"", "",
			fmt.Sprintf("%d txns, %d fsyncs (%.4f/txn), %.1f ms virtual",
				g.Txns, g.Fsyncs, g.FsyncsPerTxn, g.WriteCostMS),
		})
	}
	return t, res, nil
}
