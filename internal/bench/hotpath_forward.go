// hotpath_forward.go is the forwarded-path half of the hotpath
// experiment: 3-hop zero-copy forwarding throughput on the virtual
// clock, so BENCH_hotpath.json stays byte-identical run to run.
package bench

import (
	"fmt"
	"time"

	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/identity"
	"tax/internal/simnet"
)

// HotpathForwardingResult is one mode of the 3-hop forwarding bench:
// a → b → c → d on LAN100, relays on b and c, frames forwarded
// verbatim off header peeks (never decoded mid-path).
type HotpathForwardingResult struct {
	// Hops is the link count of the chain (3: origin, two relays, the
	// final receiver).
	Hops int `json:"hops"`
	// Batched reports whether the origin coalesced frames so relays
	// forward whole containers without unpacking.
	Batched bool `json:"batched"`
	// Messages is the number of end-to-end delivered briefcases.
	Messages int `json:"messages"`
	// RelayedPerHop is each relay's fw.relayed counter (frames that
	// crossed it verbatim); ContainersPerHop its fw.relay_containers.
	RelayedPerHop    int64 `json:"relayed_per_hop"`
	ContainersPerHop int64 `json:"containers_per_hop"`
	// VirtualMS is the final receiver's virtual-clock time from first
	// send to last delivery; MsgsPerVirtualSec is Messages over it.
	VirtualMS         float64 `json:"virtual_ms"`
	MsgsPerVirtualSec float64 `json:"msgs_per_virtual_sec"`
}

// hotpathForwardChain is the 3-hop simnet fixture: origin a, relays b
// and c, final receiver d, each host's Resolve a one-step next-hop
// table toward d.
type hotpathForwardChain struct {
	net *simnet.Network
	fws map[string]*firewall.Firewall
	src *firewall.Registration
	dst *firewall.Registration
	// fence is a registration on relay b; see hotpathForwarding.
	fence *firewall.Registration
}

func (ch *hotpathForwardChain) close() {
	for _, fw := range ch.fws {
		_ = fw.Close()
	}
	_ = ch.net.Close()
}

func newHotpathForwardChain(batched bool) (*hotpathForwardChain, error) {
	net := simnet.New(simnet.LAN100)
	ch := &hotpathForwardChain{net: net, fws: make(map[string]*firewall.Firewall)}
	sysP, err := identity.NewPrincipal("system")
	if err != nil {
		return nil, err
	}
	trust := &identity.TrustStore{}
	trust.AddPrincipal(sysP, identity.System)
	next := map[string]string{"a": "b", "b": "c", "c": "d", "d": "d"}
	for _, name := range []string{"a", "b", "c", "d"} {
		host, err := net.AddHost(name)
		if err != nil {
			ch.close()
			return nil, err
		}
		hop := next[name]
		self := name
		cfg := firewall.Config{
			HostName: name, Node: host, Trust: trust, SystemPrincipal: "system",
			Relay: name == "b" || name == "c",
			Resolve: func(host string, _ int) (string, error) {
				if host == self {
					return self, nil
				}
				return hop, nil
			},
		}
		if batched && name == "a" {
			cfg.Batch = &firewall.BatchConfig{
				MaxFrames:  16,
				MaxBytes:   1 << 20,
				MaxDelay:   time.Hour, // age flushes would depend on epoch timing
				FlushEvery: -1,        // no real-time timer: virtual determinism
			}
		}
		fw, err := firewall.New(cfg)
		if err != nil {
			ch.close()
			return nil, err
		}
		ch.fws[name] = fw
	}
	if ch.src, err = ch.fws["a"].Register("vm", "system", "src"); err != nil {
		ch.close()
		return nil, err
	}
	if ch.dst, err = ch.fws["d"].Register("vm", "system", "dst"); err != nil {
		ch.close()
		return nil, err
	}
	if ch.fence, err = ch.fws["b"].Register("vm", "system", "fence"); err != nil {
		ch.close()
		return nil, err
	}
	return ch, nil
}

// forwardBriefcase is the forwarded workload: a body plus the _TARGET
// that routes it across the chain to d.
func forwardBriefcase(n int) *briefcase.Briefcase {
	bc := briefcase.New()
	bc.SetString("BODY", fmt.Sprintf("crawl result %06d padded to a plausible briefcase payload size for the mediation hot path", n))
	bc.SetString(briefcase.FolderSysTarget, "tacoma://d/system/dst")
	return bc
}

// hotpathForwarding drives a fixed message stream over the 3-hop chain
// and reports virtual-clock end-to-end throughput. The stream is driven
// in lockstep — each message (or each flushed container) is fully
// drained at d before the next send — because simnet advances a host's
// clock from the sender's goroutine: with one transfer in flight at a
// time, every clock advance is a deterministic function of the stream,
// and the relays' departure stamps cannot race later arrivals. Elapsed
// time is read on the final receiver's clock, which the last delivery
// advanced to its arrival time.
func hotpathForwarding(batched bool) (HotpathForwardingResult, error) {
	const (
		epoch  = 16 // matches BatchConfig.MaxFrames: one container per epoch
		epochs = 16
	)
	r := HotpathForwardingResult{Hops: 3, Batched: batched, Messages: epoch * epochs}
	ch, err := newHotpathForwardChain(batched)
	if err != nil {
		return r, err
	}
	defer ch.close()

	dclock := ch.fws["d"].Clock()
	start := dclock.Now()
	sent := 0
	for e := 0; e < epochs; e++ {
		if batched {
			for m := 0; m < epoch; m++ {
				if err := ch.fws["a"].Send(ch.src.GlobalURI(), forwardBriefcase(sent)); err != nil {
					return r, fmt.Errorf("bench: forward send %d: %w", sent, err)
				}
				sent++
			}
			if err := ch.fws["a"].FlushBatches(); err != nil {
				return r, fmt.Errorf("bench: forward flush: %w", err)
			}
			for m := 0; m < epoch; m++ {
				if _, err := ch.dst.Recv(5 * time.Second); err != nil {
					return r, fmt.Errorf("bench: forward drain: %w", err)
				}
			}
			continue
		}
		for m := 0; m < epoch; m++ {
			if err := ch.fws["a"].Send(ch.src.GlobalURI(), forwardBriefcase(sent)); err != nil {
				return r, fmt.Errorf("bench: forward send %d: %w", sent, err)
			}
			sent++
			if _, err := ch.dst.Recv(5 * time.Second); err != nil {
				return r, fmt.Errorf("bench: forward drain: %w", err)
			}
		}
	}
	elapsed := dclock.Now() - start
	// A relay counts a frame after handing it on, so the last one can
	// reach d before b's counters move. b handles a's messages one at a
	// time, so once a fence addressed to b itself arrives there, every
	// earlier frame has been counted.
	fence := briefcase.New()
	fence.SetString(briefcase.FolderSysTarget, "tacoma://b/system/fence")
	if err := ch.fws["a"].Send(ch.src.GlobalURI(), fence); err != nil {
		return r, fmt.Errorf("bench: forward fence: %w", err)
	}
	if err := ch.fws["a"].FlushBatches(); err != nil {
		return r, fmt.Errorf("bench: forward flush: %w", err)
	}
	if _, err := ch.fence.Recv(5 * time.Second); err != nil {
		return r, fmt.Errorf("bench: forward fence: %w", err)
	}
	// Both relays forward every frame; record b's counters (c's are
	// identical by symmetry — the chain would not have delivered
	// otherwise).
	reg := ch.fws["b"].Telemetry().Registry()
	r.RelayedPerHop = reg.Counter("fw.relayed", "host", "b").Value()
	r.ContainersPerHop = reg.Counter("fw.relay_containers", "host", "b").Value()
	r.VirtualMS = float64(elapsed.Microseconds()) / 1000
	if s := elapsed.Seconds(); s > 0 {
		r.MsgsPerVirtualSec = float64(r.Messages) / s
	}
	return r, nil
}
