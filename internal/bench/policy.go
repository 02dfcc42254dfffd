// policy.go is the policy-engine experiment (EXPERIMENTS E8): the cost
// of default-deny mediation. It prices Eval and Charge exactly (runtime
// malloc counts, ten thousand warm tenant buckets), proves the
// mediation fast path pays zero extra allocations with an AllowAll
// engine installed (local, remote, and batched-remote sends, each
// measured with the engine off and on), and sweeps ten thousand
// quota-limited principals through one firewall for exact admission
// counts and virtual-clock throughput. Everything recorded to
// BENCH_policy.json is exact arithmetic — reruns are byte-identical.
package bench

import (
	"errors"
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/identity"
	"tax/internal/policy"
	"tax/internal/simnet"
	"tax/internal/uri"
	"tax/internal/vclock"
)

// PolicyEngineResult is one engine primitive's exact allocation count,
// measured against ten thousand resolved tenant buckets.
type PolicyEngineResult struct {
	// Op is "eval" (ruleset match) or "charge" (token-bucket debit).
	Op string `json:"op"`
	// Principals is how many tenants hold live buckets during the
	// measurement.
	Principals int `json:"principals"`
	// AllocsPerOp is the exact steady-state allocation count.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// PolicySendResult is one full mediation send's exact allocation count
// with the policy engine off (legacy path) or on (AllowAll ruleset).
type PolicySendResult struct {
	// Path is "local" (same-host delivery), "remote" (encode + forward),
	// or "remote-batched" (coalescing outbound mediation).
	Path string `json:"path"`
	// Engine reports whether an AllowAll policy engine gated the send.
	Engine bool `json:"engine"`
	// AllocsPerOp is the exact allocation count of one send.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// PolicySendDelta is the headline number per path: engine-on minus
// engine-off allocations on identical send loops. The policy gate is
// free when this is exactly zero.
type PolicySendDelta struct {
	Path string `json:"path"`
	// DeltaPerOp is allocs(engine) - allocs(legacy); the gate's budget.
	DeltaPerOp float64 `json:"send_allocs_delta_per_op"`
}

// PolicySweepResult is the multi-tenant quota sweep: every principal
// sends past its limit, and the engine's admission arithmetic must come
// out exact while the firewall sustains virtual-clock throughput.
type PolicySweepResult struct {
	// Principals is the active tenant count; SendsPerPrincipal how many
	// messages each attempted (the quota admits exactly one).
	Principals        int `json:"principals"`
	SendsPerPrincipal int `json:"sends_per_principal"`
	// Delivered / Refused are the exact admission counts; QuotaCounter
	// is the firewall's fw.policy_quota counter and must equal Refused.
	Delivered    int64 `json:"delivered"`
	Refused      int64 `json:"refused"`
	QuotaCounter int64 `json:"quota_counter"`
	// BucketPrincipals is Engine.Principals() after the sweep — tenant
	// isolation means one bucket per principal, no sharing.
	BucketPrincipals int `json:"bucket_principals"`
	// VirtualMS / MsgsPerVirtualSec are the sender host's virtual-clock
	// cost of the delivered stream.
	VirtualMS         float64 `json:"virtual_ms"`
	MsgsPerVirtualSec float64 `json:"msgs_per_virtual_sec"`
}

// PolicyResult is the BENCH_policy.json document.
type PolicyResult struct {
	Engine []PolicyEngineResult `json:"engine"`
	Send   []PolicySendResult   `json:"send"`
	Deltas []PolicySendDelta    `json:"send_deltas"`
	Sweep  []PolicySweepResult  `json:"sweep"`
}

// policyBenchTenants is the active-principal scale of both the engine
// allocation measurement and the quota sweep.
const policyBenchTenants = 10_000

// policyEngineAllocs prices Eval and Charge with ten thousand warm
// tenant buckets behind them. The engine clock is virtual and frozen,
// so refill arithmetic runs but never observes elapsed time.
func policyEngineAllocs() ([]PolicyEngineResult, error) {
	e := policy.New(vclock.NewVirtual(), policy.MustParse(
		"default deny\n"+
			"mgmt: deny * mgmt **\n"+
			"ok: allow tenant* send tacoma://h*/**\n"+
			"lim: quota tenant* rate=1000 burst=1000 bytes=1048576\n",
	), policy.Quota{})

	principals := make([]string, policyBenchTenants)
	for i := range principals {
		principals[i] = fmt.Sprintf("tenant%d", i)
	}
	target, err := uri.Parse("tacoma://h1/system/dst")
	if err != nil {
		return nil, err
	}
	// Warm every bucket (first Charge per principal resolves and
	// allocates it) so the measurement prices the steady state.
	for _, p := range principals {
		if _, ok := e.Charge(p, 1); !ok {
			return nil, fmt.Errorf("bench: warm-up charge refused for %s", p)
		}
	}
	if got := e.Principals(); got != policyBenchTenants {
		return nil, fmt.Errorf("bench: %d buckets after warm-up, want %d", got, policyBenchTenants)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 200
	idx := 0
	eval := testing.AllocsPerRun(runs, func() {
		v := e.Eval(principals[idx%policyBenchTenants], policy.OpSend, target)
		if v.Effect != policy.Allow {
			panic("bench: eval verdict flipped mid-measurement")
		}
		idx++
	})
	idx = 0
	charge := testing.AllocsPerRun(runs, func() {
		if _, ok := e.Charge(principals[idx%policyBenchTenants], 64); !ok {
			panic("bench: charge refused mid-measurement")
		}
		idx++
	})
	return []PolicyEngineResult{
		{Op: "eval", Principals: policyBenchTenants, AllocsPerOp: eval},
		{Op: "charge", Principals: policyBenchTenants, AllocsPerOp: charge},
	}, nil
}

// policySendWorld is a two-host synchronous-transport fixture ("a" and
// "b") for pricing whole sends, with or without a policy engine on the
// sender.
type policySendWorld struct {
	nodes map[string]*benchPathNode
	fwA   *firewall.Firewall
	fwB   *firewall.Firewall
	src   *firewall.Registration // tenant/src on a
	dst   *firewall.Registration // tenant/dst on a (local path)
	rcv   *firewall.Registration // tenant/rcv on b (remote path)
}

func newPolicySendWorld(engine bool, batched bool) (*policySendWorld, func(), error) {
	trust := &identity.TrustStore{}
	w := &policySendWorld{nodes: make(map[string]*benchPathNode)}
	for _, name := range []string{"a", "b"} {
		w.nodes[name] = &benchPathNode{addr: name, peers: w.nodes}
	}
	var fws []*firewall.Firewall
	cleanup := func() {
		for _, fw := range fws {
			_ = fw.Close()
		}
	}
	for _, name := range []string{"a", "b"} {
		self := name
		cfg := firewall.Config{
			HostName: name, Node: w.nodes[name], Trust: trust, SystemPrincipal: "system",
			Resolve: func(host string, _ int) (string, error) {
				if host == self {
					return self, nil
				}
				return "b", nil
			},
		}
		if name == "a" {
			if engine {
				cfg.Policy = policy.New(vclock.NewVirtual(), policy.AllowAll(), policy.Quota{})
			}
			if batched {
				cfg.Batch = &firewall.BatchConfig{
					MaxFrames:  16,
					MaxBytes:   1 << 20,
					MaxDelay:   time.Hour,
					FlushEvery: -1, // no real-time timer: deterministic counts
				}
			}
		}
		fw, err := firewall.New(cfg)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		fws = append(fws, fw)
		if name == "a" {
			w.fwA = fw
		} else {
			w.fwB = fw
		}
	}
	var err error
	if w.src, err = w.fwA.Register("vm", "tenant", "src"); err != nil {
		cleanup()
		return nil, nil, err
	}
	if w.dst, err = w.fwA.Register("vm", "tenant", "dst"); err != nil {
		cleanup()
		return nil, nil, err
	}
	if w.rcv, err = w.fwB.Register("vm", "tenant", "rcv"); err != nil {
		cleanup()
		return nil, nil, err
	}
	return w, cleanup, nil
}

// policySendBriefcase is the fixed payload both engine modes send.
func policySendBriefcase(target string) *briefcase.Briefcase {
	bc := briefcase.New()
	bc.SetString("BODY", "policy gate pricing payload: a plausible mid-crawl status line of ordinary size")
	bc.SetString(briefcase.FolderSysTarget, target)
	return bc
}

// policySendAllocs prices one full mediation send on each path for one
// engine mode. The sender principal is a plain tenant — the system
// principal would bypass the gate and measure nothing.
func policySendAllocs(engine bool) (local, remote, remoteBatched float64, err error) {
	w, cleanup, err := newPolicySendWorld(engine, false)
	if err != nil {
		return 0, 0, 0, err
	}
	defer cleanup()

	localBC := policySendBriefcase("tenant/dst")
	remoteBC := policySendBriefcase("tacoma://b/tenant/rcv")
	// Warm both paths: folder writes, bucket resolution, encoder pools.
	for i := 0; i < 3; i++ {
		if err := w.fwA.Send(w.src.GlobalURI(), localBC); err != nil {
			return 0, 0, 0, err
		}
		if _, ok := w.dst.TryRecv(); !ok {
			return 0, 0, 0, errors.New("bench: local warm-up send was not delivered")
		}
		if err := w.fwA.Send(w.src.GlobalURI(), remoteBC); err != nil {
			return 0, 0, 0, err
		}
		if _, ok := w.rcv.TryRecv(); !ok {
			return 0, 0, 0, errors.New("bench: remote warm-up send was not delivered")
		}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 200
	local = testing.AllocsPerRun(runs, func() {
		if err := w.fwA.Send(w.src.GlobalURI(), localBC); err != nil {
			panic(err)
		}
		if _, ok := w.dst.TryRecv(); !ok {
			panic("bench: local send produced no delivery")
		}
	})
	// Remote: drop at the transport after mediation + encode + gate so
	// the stage prices the sender's work alone, like hotpathPath.
	w.nodes["a"].drop = true
	remote = testing.AllocsPerRun(runs, func() {
		if err := w.fwA.Send(w.src.GlobalURI(), remoteBC); err != nil {
			panic(err)
		}
	})
	w.nodes["a"].drop = false

	// Batched remote runs in its own world so the batcher's buffers are
	// warmed by the same history in both engine modes; flush boundaries
	// land identically inside AllocsPerRun's fixed iteration count.
	wb, cleanupB, err := newPolicySendWorld(engine, true)
	if err != nil {
		return 0, 0, 0, err
	}
	defer cleanupB()
	batchBC := policySendBriefcase("tacoma://b/tenant/rcv")
	for i := 0; i < 32; i++ {
		if err := wb.fwA.Send(wb.src.GlobalURI(), batchBC); err != nil {
			return 0, 0, 0, err
		}
	}
	if err := wb.fwA.FlushBatches(); err != nil {
		return 0, 0, 0, err
	}
	for {
		if _, ok := wb.rcv.TryRecv(); !ok {
			break
		}
	}
	wb.nodes["a"].drop = true
	remoteBatched = testing.AllocsPerRun(runs, func() {
		if err := wb.fwA.Send(wb.src.GlobalURI(), batchBC); err != nil {
			panic(err)
		}
	})
	wb.nodes["a"].drop = false
	return local, remote, remoteBatched, nil
}

// policySweep pushes policyBenchTenants quota-limited principals
// through one sender firewall to sixteen receiver hosts. The engine
// clock is frozen, so each tenant's bucket admits exactly one message
// and refuses the rest — the counts below are arithmetic, not timing.
func policySweep() (PolicySweepResult, error) {
	const (
		tenants = policyBenchTenants
		perTen  = 2
		width   = 16
		epoch   = 2048 // tenants per send/flush/drain cycle (2048 % width == 0)
	)
	r := PolicySweepResult{Principals: tenants, SendsPerPrincipal: perTen}

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
	fw1, err := firewall.New(firewall.Config{
		HostName: "h1", Node: h1, Trust: trust, SystemPrincipal: "system",
		Policy: policy.New(vclock.NewVirtual(),
			policy.MustParse("default allow\nlim: quota tenant* rate=1 burst=1\n"),
			policy.Quota{}),
		Batch: &firewall.BatchConfig{
			MaxFrames: 16, MaxBytes: 1 << 20, MaxDelay: time.Hour, FlushEvery: -1,
		},
	})
	if err != nil {
		return r, err
	}
	defer func() { _ = fw1.Close() }()

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
	for base := 0; base < tenants; base += epoch {
		end := base + epoch
		if end > tenants {
			end = tenants
		}
		for i := base; i < end; i++ {
			// Un-instanced synthetic sender URIs skip the liveness check:
			// ten thousand principals, zero registrations.
			sender := uri.URI{Host: "h1", Principal: fmt.Sprintf("tenant%d", i), Name: "client"}
			target := fmt.Sprintf("tacoma://w%d/system/dst", i%width)
			for j := 0; j < perTen; j++ {
				bc := briefcase.New()
				bc.SetString(briefcase.FolderSysTarget, target)
				err := fw1.Send(sender, bc)
				switch {
				case err == nil:
					r.Delivered++
				case errors.Is(err, firewall.ErrQuotaExceeded):
					r.Refused++
				default:
					return r, fmt.Errorf("bench: sweep tenant%d send %d: %w", i, j, err)
				}
			}
		}
		if err := fw1.FlushBatches(); err != nil {
			return r, err
		}
		perHost := (end - base) / width
		for i := 0; i < width; i++ {
			for k := 0; k < perHost; k++ {
				if _, err := recvs[i].Recv(5 * time.Second); err != nil {
					return r, fmt.Errorf("bench: sweep drain w%d: %w", i, err)
				}
			}
		}
	}
	elapsed := clock.Now() - start

	reg := fw1.Telemetry().Registry()
	r.QuotaCounter = reg.Counter("fw.policy_quota", "host", "h1").Value()
	r.BucketPrincipals = fw1.Policy().Principals()
	r.VirtualMS = float64(elapsed.Microseconds()) / 1000
	if s := elapsed.Seconds(); s > 0 {
		r.MsgsPerVirtualSec = float64(r.Delivered) / s
	}
	if r.Delivered != tenants || r.Refused != tenants*(perTen-1) {
		return r, fmt.Errorf("bench: sweep admitted %d / refused %d, want %d / %d",
			r.Delivered, r.Refused, tenants, tenants*(perTen-1))
	}
	if r.QuotaCounter != r.Refused {
		return r, fmt.Errorf("bench: fw.policy_quota = %d, want %d", r.QuotaCounter, r.Refused)
	}
	if r.BucketPrincipals != tenants {
		return r, fmt.Errorf("bench: %d buckets after sweep, want %d", r.BucketPrincipals, tenants)
	}
	return r, nil
}

// Policy runs the policy-engine benchmark (EXPERIMENTS E8) and builds
// BENCH_policy.json: exact Eval/Charge allocation counts at ten
// thousand tenants, the per-path send allocation delta an AllowAll
// engine adds (the gate is free when every delta is zero), and the
// quota-starvation sweep's exact admission arithmetic with
// virtual-clock throughput.
func Policy() (*Table, any, error) {
	res := &PolicyResult{}
	engine, err := policyEngineAllocs()
	if err != nil {
		return nil, nil, err
	}
	res.Engine = engine

	type mode struct {
		local, remote, batched float64
	}
	var modes [2]mode
	for i, on := range []bool{false, true} {
		l, rm, rb, err := policySendAllocs(on)
		if err != nil {
			return nil, nil, err
		}
		modes[i] = mode{l, rm, rb}
		res.Send = append(res.Send,
			PolicySendResult{Path: "local", Engine: on, AllocsPerOp: l},
			PolicySendResult{Path: "remote", Engine: on, AllocsPerOp: rm},
			PolicySendResult{Path: "remote-batched", Engine: on, AllocsPerOp: rb},
		)
	}
	res.Deltas = []PolicySendDelta{
		{Path: "local", DeltaPerOp: modes[1].local - modes[0].local},
		{Path: "remote", DeltaPerOp: modes[1].remote - modes[0].remote},
		{Path: "remote-batched", DeltaPerOp: modes[1].batched - modes[0].batched},
	}

	sweep, err := policySweep()
	if err != nil {
		return nil, nil, err
	}
	res.Sweep = []PolicySweepResult{sweep}

	t := &Table{
		Title:  "POLICY — default-deny gate cost and multi-tenant quota sweep",
		Note:   "allocs exact (runtime malloc counts, GC paused); sweep counts are frozen-clock arithmetic; throughput is virtual-clock",
		Header: []string{"measurement", "allocs/op", "delta", "detail"},
	}
	for _, e := range res.Engine {
		t.Rows = append(t.Rows, []string{
			"engine " + e.Op,
			fmt.Sprintf("%.0f", e.AllocsPerOp),
			"",
			fmt.Sprintf("%d warm tenant buckets", e.Principals),
		})
	}
	for _, d := range res.Deltas {
		var off, on float64
		for _, s := range res.Send {
			if s.Path == d.Path {
				if s.Engine {
					on = s.AllocsPerOp
				} else {
					off = s.AllocsPerOp
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			"send " + d.Path,
			fmt.Sprintf("%.0f → %.0f", off, on),
			fmt.Sprintf("%+.0f", d.DeltaPerOp),
			"engine off → AllowAll engine on",
		})
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("sweep %d tenants", sweep.Principals),
		"", "",
		fmt.Sprintf("%d delivered / %d refused, %.0f msgs/vsec, %.1f ms virtual",
			sweep.Delivered, sweep.Refused, sweep.MsgsPerVirtualSec, sweep.VirtualMS),
	})
	return t, res, nil
}
