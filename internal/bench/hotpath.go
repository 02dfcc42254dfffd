package bench

import (
	"fmt"
	"time"

	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/identity"
	"tax/internal/simnet"
)

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
	Mediation []HotpathMediationResult `json:"mediation"`
	// Forwarding is the 3-hop zero-copy forwarding throughput sweep
	// (hotpath_forward.go): relays route wire bytes verbatim off header
	// peeks, unbatched and as whole containers.
	Forwarding []HotpathForwardingResult `json:"forwarding"`
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

// Hotpath runs the fast-path benchmark: mediated message throughput
// with batching on and off across fleet widths, and 3-hop forwarding
// throughput, both on the virtual clock, so reruns are byte-identical.
// What the path allocates is pinned by the tests of the code that pays
// it (firewall's TestForwardPathStageAllocs and TestPolicySendAllocs,
// briefcase's TestBriefcaseStructuralAllocs), not recorded here.
func Hotpath() (*Table, any, error) {
	res := &HotpathResult{}
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

	t := &Table{
		Title:  "HOTPATH — batched mediation and zero-copy forwarding",
		Note:   "virtual-clock msgs/s, lockstep driver",
		Header: []string{"measurement", "msgs/vsec", "detail"},
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
			fmt.Sprintf("%.0f", f.MsgsPerVirtualSec),
			detail,
		})
	}
	return t, res, nil
}
