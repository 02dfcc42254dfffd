package tax_test

import (
	"errors"
	"regexp"
	"strings"
	"testing"
	"time"

	"tax"
)

// TestPublicPolicyDenyReloadAndQuota drives the policy layer through
// the public façade only: a default-deny node refuses a cross-host RPC
// with an error that classifies via errors.Is on the sender's side of
// the wire, a hot reload opens the flow without a reboot, and a
// node with a NodeOptions.Quota rate-limits a chatty principal typed.
func TestPublicPolicyDenyReloadAndQuota(t *testing.T) {
	sys, err := tax.NewSystem(tax.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	if _, err := sys.AddNode("home", tax.NodeOptions{NoCVM: true}); err != nil {
		t.Fatal(err)
	}
	edge, err := sys.AddNode("edge", tax.NodeOptions{NoCVM: true, Policy: "default deny\n"})
	if err != nil {
		t.Fatal(err)
	}
	meter, err := sys.AddNode("meter", tax.NodeOptions{NoCVM: true, Quota: &tax.Quota{Rate: 1, Burst: 1}})
	if err != nil {
		t.Fatal(err)
	}

	type verdict struct {
		denied      bool   // pre-reload Meet classified as ErrPolicyDenied
		deniedText  string //
		afterReload error  // post-reload Meet error (want non-policy)
	}
	done := make(chan verdict, 1)
	sys.DeployProgram("probe", func(ctx *tax.Context) error {
		var v verdict
		req := tax.NewBriefcase()
		req.SetString("_SVCOP", "get")
		req.SetString("_PATH", "/no/such/file")
		_, err := ctx.MeetDirect("tacoma://edge//ag_fs", req, 5*time.Second)
		v.denied = errors.Is(err, tax.ErrPolicyDenied)
		if err != nil {
			v.deniedText = err.Error()
		}
		// Hot reload on the edge node: the same flow is now admitted, so
		// the request reaches ag_fs and fails on the missing file instead.
		if _, err := edge.FW.ReloadPolicy("default deny\nok: allow tourist send **\n"); err != nil {
			return err
		}
		req2 := tax.NewBriefcase()
		req2.SetString("_SVCOP", "get")
		req2.SetString("_PATH", "/no/such/file")
		_, v.afterReload = ctx.MeetDirect("tacoma://edge//ag_fs", req2, 5*time.Second)
		done <- v
		return nil
	})
	home, err := sys.Node("home")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := home.VM.Launch("tourist", "probe1", "probe", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-done:
		if !v.denied {
			t.Errorf("pre-reload Meet did not classify as ErrPolicyDenied (err: %s)", v.deniedText)
		}
		if errors.Is(v.afterReload, tax.ErrPolicyDenied) {
			t.Errorf("post-reload Meet still policy-denied: %v", v.afterReload)
		}
		if !errors.Is(v.afterReload, tax.ErrNoSuchFile) {
			t.Errorf("post-reload Meet = %v, want the request to reach ag_fs", v.afterReload)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("probe agent stalled")
	}

	// The quota façade: NodeOptions.Quota meters non-system principals.
	quotaHit := make(chan error, 1)
	sys.DeployProgram("chatty", func(ctx *tax.Context) error {
		for i := 0; i < 10; i++ {
			req := tax.NewBriefcase()
			req.SetString("_SVCOP", "get")
			req.SetString("_PATH", "/x")
			if _, err := ctx.MeetDirect("tacoma://meter//ag_fs", req, 5*time.Second); errors.Is(err, tax.ErrQuotaExceeded) {
				quotaHit <- err
				return nil
			}
		}
		quotaHit <- nil
		return nil
	})
	if _, err := meter.VM.Launch("tourist", "chatty1", "chatty", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-quotaHit:
		if err == nil {
			t.Error("ten rapid requests never tripped the rate=1 quota")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("chatty agent stalled")
	}

	// ParsePolicy is the same parser the nodes run: a bad ruleset fails
	// early, a good one round-trips.
	if _, err := tax.ParsePolicy("nonsense\n"); err == nil {
		t.Error("ParsePolicy accepted garbage")
	}
	rs, err := tax.ParsePolicy("default deny\nallow tourist send **\n")
	if err != nil || rs.Default != 0 || len(rs.Rules) != 1 {
		t.Errorf("ParsePolicy = %+v, %v", rs, err)
	}
	// And a bad Policy ruleset fails the boot, not the first send.
	if _, err := sys.AddNode("broken", tax.NodeOptions{NoCVM: true, Policy: "oops\n"}); err == nil {
		t.Error("AddNode accepted an invalid ruleset")
	}
}

// TestPublicPolicyMovePreservesPrincipal: a moving agent keeps acting
// for its launching principal on every hop. The host signer only vouches
// for agents running as its own principal — re-signing a tenant agent's
// core in transit would re-principal it as system on arrival and exempt
// the rest of its itinerary from every destination's policy gate.
func TestPublicPolicyMovePreservesPrincipal(t *testing.T) {
	sys, err := tax.NewSystem(tax.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	if _, err := sys.AddNode("home", tax.NodeOptions{NoCVM: true}); err != nil {
		t.Fatal(err)
	}
	// edge admits tourist transfers addressed to itself; everything else
	// — including the onward hop to vault — falls to the deny default.
	if _, err := sys.AddNode("edge", tax.NodeOptions{
		NoCVM:  true,
		Policy: "default deny\nin: allow tourist transfer tacoma://edge/**\n",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddNode("vault", tax.NodeOptions{NoCVM: true}); err != nil {
		t.Fatal(err)
	}

	type hop struct {
		principal string
		onward    error
	}
	done := make(chan hop, 2)
	sys.DeployProgram("walker", func(ctx *tax.Context) error {
		switch ctx.Host() {
		case "home":
			return ctx.Go("tacoma://edge//vm_go")
		case "edge":
			h := hop{principal: ctx.Principal()}
			h.onward = ctx.Go("tacoma://vault//vm_go")
			done <- h
			return h.onward
		default:
			// Reaching vault at all means the edge gate was escaped; the
			// edge hop already reported ErrMoved, this is just cleanup.
			return nil
		}
	})
	home, err := sys.Node("home")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := home.VM.Launch("tourist", "walker1", "walker", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case h := <-done:
		if h.principal != "tourist" {
			t.Errorf("agent re-principaled in transit: acting as %q at edge, want tourist", h.principal)
		}
		if errors.Is(h.onward, tax.ErrMoved) {
			t.Error("onward hop to vault moved: the agent escaped edge's default-deny gate")
		} else if !errors.Is(h.onward, tax.ErrPolicyDenied) {
			t.Errorf("onward hop = %v, want ErrPolicyDenied", h.onward)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("walker never reported from edge (first hop denied?)")
	}
}

// rawIDPattern matches the kernel's minted correlation ids; explain
// output masks them, so none may survive into operator-facing lines.
var rawIDPattern = regexp.MustCompile(`\b(?:[ts]:[^\s:]*:[0-9a-f]{16}|m[0-9a-f]{16})\b`)

// TestPublicPolicyExplainAudit: a policy denial shows up in the tower's
// explain timeline with its rule id, and the rendered lines leak no raw
// correlation ids.
func TestPublicPolicyExplainAudit(t *testing.T) {
	sys, err := tax.NewSystem(tax.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	twr := sys.EnableTower()
	if _, err := sys.AddNode("home", tax.NodeOptions{NoCVM: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddNode("edge", tax.NodeOptions{NoCVM: true, Policy: "default deny\n"}); err != nil {
		t.Fatal(err)
	}

	done := make(chan bool, 1)
	sys.DeployProgram("probe", func(ctx *tax.Context) error {
		req := tax.NewBriefcase()
		req.SetString("_SVCOP", "get")
		req.SetString("_PATH", "/x")
		_, err := ctx.MeetDirect("tacoma://edge//ag_fs", req, 5*time.Second)
		done <- errors.Is(err, tax.ErrPolicyDenied)
		return nil
	})
	home, err := sys.Node("home")
	if err != nil {
		t.Fatal(err)
	}
	bc := tax.NewBriefcase()
	if id := tax.StampTrace(bc, "home"); id == "" {
		t.Fatal("StampTrace minted no id")
	}
	if _, err := home.VM.Launch("tourist", "probe1", "probe", bc); err != nil {
		t.Fatal(err)
	}
	select {
	case denied := <-done:
		if !denied {
			t.Fatal("probe was not policy-denied")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("probe agent stalled")
	}

	var all []string
	for _, tid := range twr.Traces() {
		all = append(all, twr.Trace(tid).ExplainLines()...)
	}
	joined := strings.Join(all, "\n")
	if !strings.Contains(joined, "policy rule=p1.default") {
		t.Errorf("no explain line names the denying rule:\n%s", joined)
	}
	for _, line := range all {
		if rawIDPattern.MatchString(line) {
			t.Errorf("explain line leaks a raw id: %q", line)
		}
	}
}
