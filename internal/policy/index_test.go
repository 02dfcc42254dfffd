package policy

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"tax/internal/uri"
	"tax/internal/vclock"
)

// indexRuleset gives a tenant principal twelve rules whose principal
// glob matches it — more than an index entry holds, so Eval has to
// resume the walk — scattered among rules that do not, with the verdict
// depending on principal, op and target.
func indexRuleset() string {
	var b strings.Builder
	b.WriteString("default deny\n")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&b, "deny guest%d send **\n", i)
		fmt.Fprintf(&b, "deny tenant* mgmt tacoma://h%d/**\n", i)
	}
	b.WriteString("seven: allow tenant*7 send tacoma://*/**\n")
	b.WriteString("held: park t* send vm_*\n")
	b.WriteString("move: allow * transfer tacoma://h1/**\n")
	return b.String()
}

// TestEvalIndexBounded: 100,000 distinct principals leave the candidate
// index at its cap, every verdict — indexed or not — equals the reference
// walk's, Eval allocates nothing on either side of the cap, and Install
// starts the next ruleset with an empty index.
func TestEvalIndexBounded(t *testing.T) {
	rs := MustParse(indexRuleset())
	e := New(vclock.NewVirtual(), rs, Quota{})
	c := e.cur.Load()
	targets := []uri.URI{
		target(t, "tacoma://h1/system/dst"), target(t, "tacoma://h5/tenant/x"), target(t, "vm_go"), target(t, "ag_fs"),
	}
	ops := []string{OpSend, OpTransfer, OpMgmt}
	const principals = 100_000
	for i := 0; i < principals; i++ {
		p := fmt.Sprintf("tenant%d", i)
		op, u := ops[i%len(ops)], targets[i%len(targets)]
		if got, want := e.Eval(p, op, u), refEval(rs, c.ruleIDs, c.defID, p, op, u); got != want {
			t.Fatalf("Eval(%q, %s, %s) = %+v, reference walk %+v", p, op, u, got, want)
		}
	}
	if n := c.index.claimed.Load(); n != indexPrincipals {
		t.Errorf("index holds %d principals after %d distinct ones, want the cap %d", n, principals, indexPrincipals)
	}
	inside, past := "tenant7", fmt.Sprintf("tenant%d", principals-3)
	if c.index.lookup(rs.Rules, inside) == nil || c.index.lookup(rs.Rules, past) != nil {
		t.Fatalf("want %q indexed and %q not", inside, past)
	}
	for _, p := range []string{inside, past} {
		want := refEval(rs, c.ruleIDs, c.defID, p, OpSend, targets[0])
		if want.Effect != Allow {
			t.Fatalf("reference verdict for %q is %+v, want the allow at the end of the list", p, want)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if got := e.Eval(p, OpSend, targets[0]); got != want {
				t.Fatalf("Eval(%q) = %+v, want %+v", p, got, want)
			}
		})
		if allocs != 0 {
			t.Errorf("Eval(%q) allocates %v per run, want 0", p, allocs)
		}
	}

	e.Install(MustParse("default deny\nallow tenant7 send vm_go\n"))
	if n := e.cur.Load().index.claimed.Load(); n != 0 {
		t.Errorf("a freshly installed ruleset's index holds %d principals", n)
	}
	if v := e.Eval(inside, OpSend, targets[0]); v.Effect != Deny {
		t.Errorf("after Install, %q still gets the old ruleset's verdict: %+v", inside, v)
	}
}

// TestEvalIndexConcurrentFirstSight: many goroutines meeting the same
// new principals at once agree with the reference walk (run under -race).
func TestEvalIndexConcurrentFirstSight(t *testing.T) {
	rs := MustParse(indexRuleset())
	e := New(vclock.NewVirtual(), rs, Quota{})
	c := e.cur.Load()
	u := target(t, "tacoma://h1/system/dst")
	const workers, principals = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < principals; i++ {
				p := fmt.Sprintf("tenant%d", i)
				if got, want := e.Eval(p, OpSend, u), refEval(rs, c.ruleIDs, c.defID, p, OpSend, u); got != want {
					t.Errorf("Eval(%q) = %+v, reference walk %+v", p, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := c.index.claimed.Load(); n < principals {
		t.Errorf("index claimed %d entries for %d principals", n, principals)
	}
}
