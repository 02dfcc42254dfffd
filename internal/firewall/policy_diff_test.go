package firewall

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tax/internal/policy"
	"tax/internal/vclock"
)

// TestPolicyAllowAllDifferential is the compatibility property: a
// firewall running the AllowAll ruleset mediates exactly like a
// firewall with no policy engine. The same operation stream — local
// deliveries, parks, expiries, remote forwards, management ops, error
// paths — must produce the same per-operation errors, the same stats,
// and the same park depth on both.
func TestPolicyAllowAllDifferential(t *testing.T) {
	type world struct {
		f        *fixture
		fw1, fw2 *Firewall
	}
	build := func(withEngine bool) world {
		f := newFixture(t)
		if withEngine {
			f.config = func(c *Config) {
				c.Policy = policy.New(vclock.NewVirtual(), policy.AllowAll(), policy.Quota{})
			}
		}
		f.addHost("h1")
		f.addHost("h2")
		return world{f: f, fw1: f.sites["h1"].fw, fw2: f.sites["h2"].fw}
	}

	// run drives one identical operation stream and returns its
	// observable outcomes as comparable strings.
	run := func(w world) []string {
		var out []string
		note := func(step string, err error) {
			out = append(out, fmt.Sprintf("%s: err=%v", step, err))
		}
		src, err := w.fw1.Register("vm_go", "alice", "src")
		note("register src", err)
		dst, err := w.fw1.Register("vm_go", "alice", "dst")
		note("register dst", err)
		rcv, err := w.fw2.Register("vm_go", "alice", "rcv")
		note("register rcv", err)

		// Local delivery.
		note("local send", sendErr(w.fw1, src, "alice/dst", "one"))
		bc, err := dst.Recv(time.Second)
		note("local recv", err)
		if bc != nil {
			body, _ := bc.GetString("BODY")
			out = append(out, "local body="+body)
		}
		// Remote forward and delivery.
		note("remote send", sendErr(w.fw1, src, "tacoma://h2/alice/rcv", "two"))
		_, err = rcv.Recv(2 * time.Second)
		note("remote recv", err)
		// Park then flush by registration.
		note("park send", sendErr(w.fw1, src, "alice/late", "three"))
		late, err := w.fw1.Register("vm_go", "alice", "late")
		note("register late", err)
		_, err = late.Recv(time.Second)
		note("flushed recv", err)
		// Park then expire (fixture queue timeout 300ms).
		note("expire send", sendErr(w.fw1, src, "alice/ghost", "four"))
		deadline := time.Now().Add(3 * time.Second)
		for w.fw1.ctr.expired.Value() == 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		rep, err := src.Recv(2 * time.Second)
		note("expiry report recv", err)
		if rep != nil {
			out = append(out, "expiry kind="+Kind(rep))
		}
		// Error paths: unknown host, missing target.
		note("unknown host", unwrapClass(sendErr(w.fw1, src, "tacoma://nowhere/alice/x", "five")))
		note("mgmt list", sendErr(w.fw1, src, FirewallName+"?kind", "")) // malformed target name is fine either way
		// Management op through the normal path.
		reply := mgmtRequest(t, w.fw1, src, OpList, "")
		out = append(out, "mgmt kind="+Kind(reply))

		out = append(out, "stats1="+mediationCounters(w.fw1))
		out = append(out, "stats2="+mediationCounters(w.fw2))
		out = append(out, fmt.Sprintf("pending=%d/%d", w.fw1.Pending(), w.fw2.Pending()))
		return out
	}

	legacy := run(build(false))
	gated := run(build(true))
	if len(legacy) != len(gated) {
		t.Fatalf("trace lengths differ: %d vs %d\nlegacy=%q\ngated=%q", len(legacy), len(gated), legacy, gated)
	}
	for i := range legacy {
		if legacy[i] != gated[i] {
			t.Errorf("step %d diverges:\n  legacy: %s\n  engine: %s", i, legacy[i], gated[i])
		}
	}
}

// mediationCounters formats the firewall's mediation outcome counters.
func mediationCounters(fw *Firewall) string {
	c := &fw.ctr
	return fmt.Sprintf("delivered=%d forwarded=%d queued=%d expired=%d auth_failures=%d mgmt_ops=%d errors=%d",
		c.delivered.Value(), c.forwarded.Value(), c.queued.Value(), c.expired.Value(),
		c.authFailures.Value(), c.mgmtOps.Value(), c.errors.Value())
}

// unwrapClass normalizes errors to their sentinel class so wrapped
// messages with host-specific detail still compare equal.
func unwrapClass(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrNoTarget):
		return ErrNoTarget
	case errors.Is(err, ErrSenderGone):
		return ErrSenderGone
	default:
		// Resolve errors and the like: compare by first line of text.
		return errors.New(err.Error())
	}
}
