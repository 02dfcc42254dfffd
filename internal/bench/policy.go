// policy.go is the policy-engine experiment (EXPERIMENTS E8): it sweeps
// ten thousand quota-limited principals through one firewall for exact
// admission counts and virtual-clock throughput. Everything recorded to
// BENCH_policy.json is exact arithmetic — reruns are byte-identical.
package bench

import (
	"errors"
	"fmt"
	"time"

	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/identity"
	"tax/internal/policy"
	"tax/internal/simnet"
	"tax/internal/uri"
	"tax/internal/vclock"
)

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
	Sweep []PolicySweepResult `json:"sweep"`
}

// policySweep pushes ten thousand quota-limited principals
// through one sender firewall to sixteen receiver hosts. The engine
// clock is frozen, so each tenant's bucket admits exactly one message
// and refuses the rest — the counts below are arithmetic, not timing.
func policySweep() (PolicySweepResult, error) {
	const (
		tenants = 10_000
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
// BENCH_policy.json: the quota-starvation sweep's exact admission
// arithmetic with virtual-clock throughput. What the gate allocates is
// pinned by policy's TestEvalAllocs and TestChargeAllocs and firewall's
// TestPolicySendAllocs.
func Policy() (*Table, any, error) {
	sweep, err := policySweep()
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title:  "POLICY — multi-tenant quota sweep",
		Note:   "sweep counts are frozen-clock arithmetic; throughput is virtual-clock",
		Header: []string{"measurement", "detail"},
		Rows: [][]string{{
			fmt.Sprintf("sweep %d tenants", sweep.Principals),
			fmt.Sprintf("%d delivered / %d refused, %.0f msgs/vsec, %.1f ms virtual",
				sweep.Delivered, sweep.Refused, sweep.MsgsPerVirtualSec, sweep.VirtualMS),
		}},
	}
	return t, &PolicyResult{Sweep: []PolicySweepResult{sweep}}, nil
}
