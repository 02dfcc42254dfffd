package policy

import (
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tax/internal/vclock"
)

func TestEvalFirstMatchWins(t *testing.T) {
	rs := MustParse(`
default deny
first:  deny  tourist send vm_secret
second: allow tourist send vm_*
third:  allow *       *    **
`)
	clk := vclock.NewVirtual()
	e := New(clk, rs, Quota{})

	v := e.Eval("tourist", OpSend, target(t, "vm_secret"))
	if v.Effect != Deny || v.RuleID != "p1.first" {
		t.Errorf("vm_secret verdict = %+v, want deny by p1.first", v)
	}
	v = e.Eval("tourist", OpSend, target(t, "vm_c"))
	if v.Effect != Allow || v.RuleID != "p1.second" {
		t.Errorf("vm_c verdict = %+v, want allow by p1.second", v)
	}
	v = e.Eval("someone", OpTransfer, target(t, "vm_secret"))
	if v.Effect != Allow || v.RuleID != "p1.third" {
		t.Errorf("transfer verdict = %+v, want allow by p1.third", v)
	}
}

func TestEvalOpAndDefault(t *testing.T) {
	rs := MustParse(`
default deny
allow tourist send vm_*
`)
	e := New(vclock.NewVirtual(), rs, Quota{})
	// Same principal and target, different op: falls through to default.
	v := e.Eval("tourist", OpTransfer, target(t, "vm_c"))
	if v.Effect != Deny || v.RuleID != "p1.default" {
		t.Errorf("transfer verdict = %+v, want default deny", v)
	}
	// Unlabelled rules get index ids.
	v = e.Eval("tourist", OpSend, target(t, "vm_c"))
	if v.RuleID != "p1.r0" {
		t.Errorf("rule id = %q, want p1.r0", v.RuleID)
	}
}

// TestEvalDefaultDeny: with no rule matching and no default line, no
// principal is ever allowed — and a nil ruleset behaves the same.
func TestEvalDefaultDeny(t *testing.T) {
	for _, e := range []*Engine{
		New(vclock.NewVirtual(), nil, Quota{}),
		New(vclock.NewVirtual(), MustParse(""), Quota{}),
	} {
		for _, principal := range []string{"tourist", "system", "", "tacoma@cl2.cs.uit.no"} {
			for _, op := range []string{OpSend, OpTransfer, OpMgmt} {
				v := e.Eval(principal, op, target(t, "ag_fs"))
				if v.Effect != Deny {
					t.Fatalf("Eval(%q, %s) = %+v, want deny", principal, op, v)
				}
				if v.RuleID == "" {
					t.Fatal("deny verdict carries no rule id")
				}
			}
		}
	}
}

func TestEvalAllocs(t *testing.T) {
	rs := MustParse(`
default deny
allow tacoma@* *    **
allow tourist* send tacoma://*.uit.no/*/vm_*
`)
	e := New(vclock.NewVirtual(), rs, Quota{})
	u := target(t, "tacoma://cl2.cs.uit.no/tourist/vm_c:2a")
	allocs := testing.AllocsPerRun(200, func() {
		if v := e.Eval("tourist42", OpSend, u); v.Effect != Allow {
			t.Fatal("expected allow")
		}
	})
	if allocs != 0 {
		t.Errorf("Eval allocates %v per run, want 0", allocs)
	}
	t.Run("10k-warm-buckets", func(t *testing.T) {
		e, tenants := warmTenants(t)
		u := target(t, "tacoma://h1/system/dst")
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			if v := e.Eval(tenants[i%len(tenants)], OpSend, u); v.Effect != Allow {
				t.Fatalf("verdict %+v, want allow", v)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("Eval with %d warm buckets allocates %v per run, want 0", len(tenants), allocs)
		}
	})
}

// warmTenants is an engine with ten thousand tenant buckets behind it,
// each resolved by a first Charge, so a measurement prices the steady
// state. The clock is virtual and frozen: refill arithmetic runs but
// never sees time pass. It skips under the race detector, where exact
// allocation counts do not hold.
func warmTenants(t *testing.T) (*Engine, []string) {
	if raceBuild {
		t.Skip("exact allocation counts do not hold under the race detector")
	}
	e := New(vclock.NewVirtual(), MustParse(`
default deny
mgmt: deny * mgmt **
ok: allow tenant* send tacoma://h*/**
lim: quota tenant* rate=1000 burst=1000 bytes=1048576
`), Quota{})
	tenants := make([]string, 10_000)
	for i := range tenants {
		tenants[i] = "tenant" + strconv.Itoa(i)
		if _, ok := e.Charge(tenants[i], 1); !ok {
			t.Fatalf("warm-up charge refused for %s", tenants[i])
		}
	}
	if got := e.Principals(); got != len(tenants) {
		t.Fatalf("%d buckets after warm-up, want %d", got, len(tenants))
	}
	return e, tenants
}

func TestChargeRateQuota(t *testing.T) {
	clk := vclock.NewVirtual()
	e := New(clk, MustParse("default allow\nlim: quota tourist rate=2 burst=2\n"), Quota{})

	// Burst of 2 messages, then dry.
	for i := 0; i < 2; i++ {
		if id, ok := e.Charge("tourist", 0); !ok {
			t.Fatalf("charge %d refused by %s", i, id)
		}
	}
	id, ok := e.Charge("tourist", 0)
	if ok || id != "p1.lim" {
		t.Fatalf("third charge = (%q, %v), want refusal by p1.lim", id, ok)
	}
	// Half a second refills one token at rate 2/s.
	clk.Advance(500 * time.Millisecond)
	if _, ok := e.Charge("tourist", 0); !ok {
		t.Fatal("charge after refill refused")
	}
	if _, ok := e.Charge("tourist", 0); ok {
		t.Fatal("bucket should be dry again")
	}
	// Unmatched principals run on the (unlimited) default quota.
	for i := 0; i < 100; i++ {
		if id, ok := e.Charge("other", 0); !ok || id != "" {
			t.Fatalf("unlimited principal refused by %q", id)
		}
	}
}

func TestChargeByteQuota(t *testing.T) {
	clk := vclock.NewVirtual()
	e := New(clk, MustParse("default allow\nquota tourist rate=1000 bytes=100 bytesburst=150\n"), Quota{})
	if _, ok := e.Charge("tourist", 150); !ok {
		t.Fatal("first 150-byte frame should fit the byte burst")
	}
	if id, ok := e.Charge("tourist", 1); ok {
		t.Fatal("byte bucket should be empty")
	} else if id != "p1.q0" {
		t.Fatalf("refusal id = %q, want p1.q0", id)
	}
	clk.Advance(time.Second) // refills 100 bytes
	if _, ok := e.Charge("tourist", 100); !ok {
		t.Fatal("refilled byte budget refused")
	}
	if _, ok := e.Charge("tourist", 1); ok {
		t.Fatal("byte bucket should be empty again")
	}
}

// TestChargeRefusalDebitsNothing: a refused charge leaves both buckets
// untouched — a message over byte budget does not burn message tokens.
func TestChargeRefusalDebitsNothing(t *testing.T) {
	clk := vclock.NewVirtual()
	e := New(clk, MustParse("default allow\nquota t rate=1 burst=1 bytes=10\n"), Quota{})
	if _, ok := e.Charge("t", 100); ok {
		t.Fatal("over-byte-budget charge should refuse")
	}
	// The message token survived the refusal.
	if _, ok := e.Charge("t", 5); !ok {
		t.Fatal("message token was burned by the refused charge")
	}
}

// TestDefaultQuota: the engine-wide default (WithQuotas) applies to
// principals no quota line matches, with Burst normalized from Rate.
func TestDefaultQuota(t *testing.T) {
	clk := vclock.NewVirtual()
	e := New(clk, AllowAll(), Quota{Rate: 1})
	if id, ok := e.Charge("anyone", 0); !ok || id != "p1.quota" {
		t.Fatalf("first charge = (%q, %v), want ok under p1.quota", id, ok)
	}
	if _, ok := e.Charge("anyone", 0); ok {
		t.Fatal("burst=rate=1 should be dry after one message")
	}
	clk.Advance(time.Second)
	if _, ok := e.Charge("anyone", 0); !ok {
		t.Fatal("refill refused")
	}
}

func TestChargeAllocs(t *testing.T) {
	clk := vclock.NewVirtual()
	e := New(clk, MustParse("default allow\nquota tourist rate=1000000 bytes=1000000\n"), Quota{})
	e.Charge("tourist", 1) // bucket allocation happens here, once
	allocs := testing.AllocsPerRun(200, func() {
		clk.Advance(time.Millisecond)
		if _, ok := e.Charge("tourist", 1); !ok {
			t.Fatal("charge refused")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Charge allocates %v per run, want 0", allocs)
	}
	t.Run("10k-warm-buckets", func(t *testing.T) {
		e, tenants := warmTenants(t)
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			if _, ok := e.Charge(tenants[i%len(tenants)], 64); !ok {
				t.Fatal("charge refused")
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("Charge with %d warm buckets allocates %v per run, want 0", len(tenants), allocs)
		}
	})
}

// TestRefillOverflow: a huge idle gap must clamp to the cap, not wrap
// int64 token arithmetic.
func TestRefillOverflow(t *testing.T) {
	clk := vclock.NewVirtual()
	e := New(clk, MustParse("default allow\nquota t rate=1000000000 burst=1000000000\n"), Quota{})
	e.Charge("t", 0)
	clk.Advance(100 * 365 * 24 * time.Hour) // a century of refill
	if _, ok := e.Charge("t", 0); !ok {
		t.Fatal("charge refused after long idle")
	}
	// And the raw helper clamps exactly.
	if got := refill(0, 5*nano, MaxRate, 1<<62); got != 5*nano {
		t.Errorf("refill clamped to %d, want cap %d", got, 5*nano)
	}
	if got := refill(3, 10, 0, 1<<62); got != 3 {
		t.Errorf("zero-rate refill = %d, want unchanged", got)
	}
}

// TestInstallSwapsWhole: after Install returns, every Eval sees the new
// ruleset; verdict ids carry the new version; buckets re-resolve.
func TestInstallSwapsWhole(t *testing.T) {
	clk := vclock.NewVirtual()
	e := New(clk, MustParse("default deny\n"), Quota{})
	if v := e.Eval("tourist", OpSend, target(t, "vm_c")); v.Effect != Deny {
		t.Fatal("v1 should deny")
	}
	ver := e.Install(MustParse("default deny\nok: allow tourist send vm_*\nquota tourist rate=1\n"))
	if ver != 2 || e.Version() != 2 {
		t.Fatalf("Install returned %d, Version() %d, want 2", ver, e.Version())
	}
	if v := e.Eval("tourist", OpSend, target(t, "vm_c")); v.Effect != Allow || v.RuleID != "p2.ok" {
		t.Fatalf("v2 verdict = %+v", v)
	}
	// The tourist bucket now runs the v2 quota line.
	if id, ok := e.Charge("tourist", 0); !ok || id != "p2.q0" {
		t.Fatalf("post-reload charge = (%q, %v), want ok under p2.q0", id, ok)
	}
	if _, ok := e.Charge("tourist", 0); ok {
		t.Fatal("v2 rate=1 burst should be dry")
	}
}

// TestReloadAtomicUnderConcurrentEval: while rulesets that allow
// disjoint halves of the principal space swap continuously, every Eval
// must see exactly one whole ruleset — a verdict pair straddling two
// versions would produce an allow with a rule id from the wrong version.
func TestReloadAtomicUnderConcurrentEval(t *testing.T) {
	rsA := MustParse("default deny\na: allow alice send **\n")
	rsB := MustParse("default deny\nb: allow bob   send **\n")
	clk := vclock.NewVirtual()
	e := New(clk, rsA, Quota{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				e.Install(rsB)
			} else {
				e.Install(rsA)
			}
		}
	}()
	u := target(t, "ag_fs")
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				va := e.Eval("alice", OpSend, u)
				vb := e.Eval("bob", OpSend, u)
				// Each individual verdict must be internally consistent:
				// an allow always names its rule, a deny the default.
				for _, v := range []Verdict{va, vb} {
					if v.Effect == Allow && !strings.Contains(v.RuleID, ".a") && !strings.Contains(v.RuleID, ".b") {
						t.Errorf("allow verdict with default id: %+v", v)
						return
					}
					if v.Effect == Deny && !strings.HasSuffix(v.RuleID, ".default") {
						t.Errorf("deny verdict with rule id: %+v", v)
						return
					}
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestManyPrincipals: thousands of tenants charge concurrently with
// isolated buckets — starving one principal never affects another.
func TestManyPrincipals(t *testing.T) {
	clk := vclock.NewVirtual()
	e := New(clk, MustParse("default allow\nquota starved rate=1 burst=1\n"), Quota{})
	const n = 2000
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := fmt.Sprintf("tenant%d", i)
			for j := 0; j < 5; j++ {
				if _, ok := e.Charge(p, 10); !ok {
					t.Errorf("unlimited tenant %s refused", p)
					return
				}
			}
		}(i)
	}
	// Starve one principal in parallel.
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Charge("starved", 0)
		if _, ok := e.Charge("starved", 0); ok {
			t.Error("starved principal should be dry")
		}
	}()
	wg.Wait()
	if got := e.Principals(); got != n+1 {
		t.Errorf("Principals() = %d, want %d", got, n+1)
	}
}

func TestDescribe(t *testing.T) {
	e := New(vclock.NewVirtual(), MustParse(`
default deny
trusted: allow tacoma@* * **
quota tourist rate=10 bytes=100
`), Quota{})
	rows := e.Describe()
	want := []string{
		"version|1",
		"p1.default|default|deny",
		"p1.trusted|allow|tacoma@*|*|**",
		"p1.q0|quota|tourist|rate=10|burst=10|bytes=100|bytesburst=100",
	}
	if len(rows) != len(want) {
		t.Fatalf("Describe rows = %q", rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d = %q, want %q", i, rows[i], want[i])
		}
	}
}
