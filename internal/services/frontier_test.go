package services_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/cabinet"
	"tax/internal/core"
	"tax/internal/frontier"
	"tax/internal/services"
	"tax/internal/simnet"
	"tax/internal/vclock"
)

// frontierRig serves one frontier from host "mine" to callers on the
// other hosts. The frontier has a store of its own, so its Seq counts
// frontier transactions and nothing else.
type frontierRig struct {
	fr     *frontier.Frontier
	store  *cabinet.Store
	mine   *core.Node
	client services.FrontierClient
	ctx    map[string]*agent.Context
}

func newFrontierRig(t *testing.T, admit func(string, int) bool, callers ...string) *frontierRig {
	t.Helper()
	sys, err := core.NewSystem(simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	r := &frontierRig{
		store:  cabinet.NewStore(cabinet.Options{Clock: vclock.NewVirtual(), SnapshotEvery: -1}),
		client: services.FrontierClient{Service: "tacoma://mine//ag_frontier"},
		ctx:    map[string]*agent.Context{},
	}
	if r.fr, err = frontier.New(frontier.Options{Store: r.store}); err != nil {
		t.Fatal(err)
	}
	for _, h := range append([]string{"mine"}, callers...) {
		n, err := sys.AddNodeWith(h, core.WithoutCVM())
		if err != nil {
			t.Fatal(err)
		}
		if h == "mine" {
			r.mine = n
			continue
		}
		reg, err := n.FW.Register("test", "system", h)
		if err != nil {
			t.Fatal(err)
		}
		r.ctx[h] = agent.NewContext(n.FW, reg, briefcase.New(), nil, nil)
	}
	r.mine.Programs.Register("ag_frontier", services.NewAgFrontier(r.fr, admit))
	if _, err := r.mine.VM.Launch(sys.SystemPrincipal.Name(), "ag_frontier", "ag_frontier", nil); err != nil {
		t.Fatal(err)
	}
	return r
}

// delivered counts the requests mine's firewall has handed to a mailbox.
func (r *frontierRig) delivered() int64 {
	return r.mine.FW.Telemetry().Registry().Counter("fw.delivered", "host", "mine").Value()
}

// async issues a request that parks, and returns once the service has
// it queued: a later request is then answered after it.
func (r *frontierRig) async(t *testing.T, call func() (*frontier.Claim, string, error)) <-chan result {
	t.Helper()
	before := r.delivered()
	out := make(chan result, 1)
	go func() {
		cl, state, err := call()
		out <- result{cl, state, err}
	}()
	for deadline := time.Now().Add(5 * time.Second); r.delivered() == before; {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the frontier host")
		}
		time.Sleep(time.Millisecond)
	}
	return out
}

// complete reports rec in a batch at k = 1 and returns the one claim
// the reply carries, if any.
func (r *frontierRig) complete(caller, worker string, rec *frontier.PageRecord) (*frontier.Claim, string, error) {
	cls, state, err := r.client.Batch(r.ctx[caller], worker, []*frontier.PageRecord{rec}, nil, 1)
	if err != nil || len(cls) == 0 {
		return nil, state, err
	}
	if len(cls) > 1 {
		return nil, state, fmt.Errorf("a k = 1 batch leased %d claims", len(cls))
	}
	return cls[0], state, nil
}

type result struct {
	cl    *frontier.Claim
	state string
	err   error
}

func wantClaim(t *testing.T, what string, cl *frontier.Claim, state string, err error, url string, depth int) {
	t.Helper()
	if err != nil || state != services.FrontierStateClaimed || cl.URL != url || cl.Depth != depth {
		t.Fatalf("%s = (%+v, %q, %v), want %s at depth %d", what, cl, state, err, url, depth)
	}
}

// TestAgFrontierCompletesAtFrontierDepth is the stale-depth interleaving
// through the service: a URL claimed at depth 3 is re-discovered at
// depth 2 while its fetch is in flight, and the worker reports it at
// 3. Under MaxDepth 3 its link must still be fetched, at depth 3.
func TestAgFrontierCompletesAtFrontierDepth(t *testing.T) {
	r := newFrontierRig(t, func(_ string, depth int) bool { return depth <= 3 }, "base", "w1")
	base, w1 := r.ctx["base"], r.ctx["w1"]
	if err := r.client.Add(base, []frontier.Link{{URL: "http://h/u", Depth: 3}}); err != nil {
		t.Fatal(err)
	}
	cl, state, err := r.client.Claim(w1, "w1")
	wantClaim(t, "claim", cl, state, err, "http://h/u", 3)
	if err := r.client.Add(base, []frontier.Link{{URL: "http://h/u", Depth: 2}}); err != nil {
		t.Fatal(err)
	}
	rec := &frontier.PageRecord{URL: cl.URL, Depth: cl.Depth, Status: 200,
		Links: []frontier.Link{{URL: "http://h/k", Referrer: cl.URL}}}
	cl, state, err = r.complete("w1", "w1", rec)
	wantClaim(t, "complete's next claim", cl, state, err, "http://h/k", 3)
}

// TestAgFrontierOneRoundTripPerURL walks two workers through a
// three-page crawl: every completion is one frontier transaction and
// carries the next claim, a request that finds no work parks until work
// arrives or the crawl drains, and nobody polls.
func TestAgFrontierOneRoundTripPerURL(t *testing.T) {
	r := newFrontierRig(t, nil, "base", "w1", "w2")
	w1, w2 := r.ctx["w1"], r.ctx["w2"]
	if err := r.client.Add(r.ctx["base"], []frontier.Link{{URL: "http://h/", Depth: 0}}); err != nil {
		t.Fatal(err)
	}
	cl, state, err := r.client.Claim(w1, "w1")
	wantClaim(t, "w1 claim", cl, state, err, "http://h/", 0)

	// Nothing pending, the root outstanding: w2's claim parks.
	parked := r.async(t, func() (*frontier.Claim, string, error) { return r.client.Claim(w2, "w2") })
	seq := r.store.Seq()
	root := &frontier.PageRecord{URL: "http://h/", Status: 200,
		Links: []frontier.Link{{URL: "http://h/a"}, {URL: "http://h/b"}}}
	cl, state, err = r.complete("w1", "w1", root)
	wantClaim(t, "w1 complete", cl, state, err, "http://h/a", 1)
	got := <-parked
	wantClaim(t, "w2 parked claim", got.cl, got.state, got.err, "http://h/b", 1)
	if d := r.store.Seq() - seq; d != 2 {
		t.Fatalf("root completion + w2's lease committed %d transactions, want 2", d)
	}

	// a completes with b outstanding: w1's completion parks, then the
	// last completion drains the crawl and answers both.
	seq = r.store.Seq()
	parked = r.async(t, func() (*frontier.Claim, string, error) {
		return r.complete("w1", "w1", &frontier.PageRecord{URL: "http://h/a", Status: 200})
	})
	cl, state, err = r.complete("w2", "w2", &frontier.PageRecord{URL: "http://h/b", Status: 404})
	if err != nil || cl != nil || state != services.FrontierStateDrained {
		t.Fatalf("last complete = (%+v, %q, %v), want drained", cl, state, err)
	}
	if got := <-parked; got.err != nil || got.cl != nil || got.state != services.FrontierStateDrained {
		t.Fatalf("parked complete = %+v, want drained", got)
	}
	if d := r.store.Seq() - seq; d != 2 {
		t.Fatalf("two completions committed %d transactions, want 2", d)
	}
	recs, err := r.client.Records(r.ctx["base"])
	if err != nil || len(recs) != 3 || recs[0].Depth != 0 || recs[1].Depth != 1 || len(recs[0].Links) != 2 {
		t.Fatalf("records = %+v, %v", recs, err)
	}
	if c := r.fr.Counts(); c.Done != 3 || c.Reclaims != 0 || c.DupCompletions != 0 {
		t.Fatalf("counts %+v", c)
	}
}

// TestAgFrontierBatchLease walks a lease of k URLs through the service:
// one batch leases k claims in one transaction, a repeated batch (its
// reply lost) re-issues the same claims and commits nothing, a batch of
// k records and a failure is again one transaction, and a parked batch
// is answered with as many claims as it asked for.
func TestAgFrontierBatchLease(t *testing.T) {
	r := newFrontierRig(t, nil, "base", "w1", "w2")
	w1, w2 := r.ctx["w1"], r.ctx["w2"]
	var seed []frontier.Link
	for _, u := range []string{"a", "b", "c", "d"} {
		seed = append(seed, frontier.Link{URL: "http://h/" + u, Depth: 1})
	}
	if err := r.client.Add(r.ctx["base"], seed); err != nil {
		t.Fatal(err)
	}
	urls := func(cls []*frontier.Claim) []string {
		var out []string
		for _, cl := range cls {
			out = append(out, cl.URL)
		}
		return out
	}
	seq := r.store.Seq()
	cls, state, err := r.client.Batch(w1, "w1", nil, nil, 3)
	if err != nil || state != services.FrontierStateClaimed || !reflect.DeepEqual(urls(cls), []string{"http://h/a", "http://h/b", "http://h/c"}) {
		t.Fatalf("first batch = (%v, %q, %v), want a, b and c", urls(cls), state, err)
	}
	again, _, err := r.client.Batch(w1, "w1", nil, nil, 3)
	if err != nil || !reflect.DeepEqual(again, cls) {
		t.Fatalf("repeated batch = (%+v, %v), want %+v", again, err, cls)
	}
	if d := r.store.Seq() - seq; d != 1 {
		t.Fatalf("a batch and its repeat committed %d transactions, want 1", d)
	}

	// d is w2's; w2 asks for two more and parks.
	cls2, _, err := r.client.Batch(w2, "w2", nil, nil, 1)
	if err != nil || !reflect.DeepEqual(urls(cls2), []string{"http://h/d"}) {
		t.Fatalf("w2's batch = (%v, %v), want d", urls(cls2), err)
	}
	d := &frontier.PageRecord{URL: "http://h/d", Status: 200}
	parked := r.async(t, func() (*frontier.Claim, string, error) {
		cls, state, err := r.client.Batch(w2, "w2", []*frontier.PageRecord{d}, nil, 2)
		if err == nil && !reflect.DeepEqual(urls(cls), []string{"http://h/y", "http://h/z"}) {
			return nil, state, fmt.Errorf("parked batch leased %v, want y and z", urls(cls))
		}
		return nil, state, err
	})

	// w1 completes a (linking x, y and z) and b, fails c, and asks for
	// two: c and x. w2's parked batch is answered with y and z.
	seq = r.store.Seq()
	a := &frontier.PageRecord{URL: "http://h/a", Status: 200, Links: []frontier.Link{{URL: "http://h/x"}, {URL: "http://h/y"}, {URL: "http://h/z"}}}
	b := &frontier.PageRecord{URL: "http://h/b", Status: 200}
	fail := frontier.FetchFailure{URL: "http://h/c", Code: "wb_fetch_failed", Reason: "reset|by peer", Retryable: true}
	cls, state, err = r.client.Batch(w1, "w1", []*frontier.PageRecord{a, b}, []frontier.FetchFailure{fail}, 2)
	if err != nil || state != services.FrontierStateClaimed || !reflect.DeepEqual(urls(cls), []string{"http://h/c", "http://h/x"}) {
		t.Fatalf("w1's report = (%v, %q, %v), want c (re-pended) then x", urls(cls), state, err)
	}
	if cls[0].Attempts != 1 {
		t.Fatalf("re-pended c leased at attempt %d, want 1", cls[0].Attempts)
	}
	if got := <-parked; got.err != nil || got.state != services.FrontierStateClaimed {
		t.Fatalf("parked batch = %+v", got)
	}
	if d := r.store.Seq() - seq; d != 2 {
		t.Fatalf("w1's report and w2's parked lease committed %d transactions, want 2", d)
	}
	c := r.fr.Counts()
	if c.Done != 3 || c.Claimed != 4 || c.Journal != 1 || c.Reclaims != 3 {
		t.Fatalf("counts %+v", c)
	}
}

// TestAgFrontierAddKeepsReferrerBars: a seeded link's referrer is free
// text. Joined into one "depth|referrer|url" row, a referrer with a bar
// in it shifted the URL: the service admitted "b|http://h/c".
func TestAgFrontierAddKeepsReferrerBars(t *testing.T) {
	r := newFrontierRig(t, nil, "base", "w1")
	if err := r.client.Add(r.ctx["base"], []frontier.Link{{URL: "http://h/c", Referrer: "http://h/a|b", Depth: 2}}); err != nil {
		t.Fatal(err)
	}
	cl, state, err := r.client.Claim(r.ctx["w1"], "w1")
	wantClaim(t, "claim", cl, state, err, "http://h/c", 2)
	if cl.Referrer != "http://h/a|b" {
		t.Fatalf("claim's referrer %q, want %q", cl.Referrer, "http://h/a|b")
	}
}
