package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/core"
	"tax/internal/firewall"
	"tax/internal/simnet"
	"tax/internal/telemetry"
)

const (
	tourHops      = 12       // hops per tour; an op is one hop
	tourCodeBytes = 64 << 10 // the carried CODE element
	tourStopBytes = 200      // RESULTS growth per stop
)

var tourHosts = []string{"h1", "h2", "h3", "h4"}

// agentTour is the agent_tour workload: one agent at a time touring a
// seeded itinerary over four core nodes with RequireAuth, carrying a
// 64 KiB signed core, then delivering its results to a collector at
// home. An op is one hop, arrival to next arrival.
type agentTour struct {
	tr        *tracer
	sys       *core.System
	home      *core.Node
	collector *firewall.Registration
	itinerary []string // tourHops host names
	code      []byte
	stop      []byte
	arrivals  chan time.Time // one per handler activation
	leftAt    time.Time      // when the last visit ended and Go began
}

func (w *agentTour) sliceOps() int { return 19 * tourHops }

func (w *agentTour) setup(seed int64, tr *tracer) error {
	w.tr = tr
	rng := rand.New(rand.NewSource(seed))
	w.code = make([]byte, tourCodeBytes)
	rng.Read(w.code)
	w.stop = []byte(strings.Repeat("r", tourStopBytes))
	// A seeded itinerary that never asks for a move to the host the
	// agent is already on — every hop crosses the network — and whose
	// last hop is the way home, so the delivery to the collector is the
	// same local send whatever the seed.
	at := 0
	for len(w.itinerary) < tourHops-1 {
		next := rng.Intn(len(tourHosts) - 1)
		if next >= at {
			next++
		}
		if len(w.itinerary) == tourHops-2 && next == 0 {
			continue // the stop before home must not be home
		}
		w.itinerary = append(w.itinerary, tourHosts[next])
		at = next
	}
	w.itinerary = append(w.itinerary, tourHosts[0])

	sys, err := core.NewSystem(simnet.LAN100)
	if err != nil {
		return err
	}
	w.sys = sys
	for _, h := range tourHosts {
		opts := core.NodeOptions{NoCVM: true, RequireAuth: true}
		if tr != nil {
			// The traced pass reads the firewall's own fw.inbound
			// histogram: core builds the simnet host itself, so there
			// is no Node to decorate.
			opts.Telemetry = telemetry.New(telemetry.Options{Host: h, Spans: true})
		}
		if _, err := sys.AddNode(h, opts); err != nil {
			return err
		}
	}
	if w.home, err = sys.Node(tourHosts[0]); err != nil {
		return err
	}
	if w.collector, err = w.home.FW.Register("bench", sys.SystemPrincipal.Name(), "collector"); err != nil {
		return err
	}
	// Buffered for one whole tour, so the agent never waits on the
	// harness to record an arrival.
	w.arrivals = make(chan time.Time, tourHops+1)
	sys.DeployProgram("tour", w.handler)
	return nil
}

// handler is the touring agent's program, deployed on every node.
func (w *agentTour) handler(ctx *agent.Context) error {
	now := time.Now()
	w.arrivals <- now
	if !w.leftAt.IsZero() {
		w.tr.record(spanGo, w.leftAt, now) // Context.Go call to arrival
	}
	defer w.tr.end(w.tr.begin(spanHandler, currentOp))
	err := agent.RunItinerary(ctx, func(ctx *agent.Context) error {
		bc := ctx.Briefcase()
		// Launch rewrites CODE to the program name; the first stop
		// adds the carried image, which every later hop signs,
		// ships and verifies.
		if code := bc.Ensure(briefcase.FolderCode); code.Len() == 1 {
			code.Append(w.code)
		}
		res := bc.Ensure(briefcase.FolderResults)
		res.AppendString(ctx.Host())
		res.Append(w.stop)
		w.leftAt = time.Now() // RunItinerary calls Go next
		return nil
	})
	if err != nil {
		return err // agent.ErrMoved after a successful hop
	}
	out := briefcase.New()
	if res, err := ctx.Briefcase().Folder(briefcase.FolderResults); err == nil {
		out.Ensure(briefcase.FolderResults).Append(res.Bytes()...)
	}
	return ctx.Activate("tacoma://"+tourHosts[0]+"//collector", out)
}

// run executes n/tourHops tours.
func (w *agentTour) run(n int, rec *recorder) error {
	if n%tourHops != 0 {
		return fmt.Errorf("agent_tour: slice of %d hops is not a whole number of %d-hop tours", n, tourHops)
	}
	sysName := w.sys.SystemPrincipal.Name()
	for t := 0; t < n/tourHops; t++ {
		bc := briefcase.New()
		hosts := bc.Ensure(briefcase.FolderHosts)
		for _, h := range w.itinerary {
			hosts.AppendString("tacoma://" + h + "//vm_go")
		}
		root := w.tr.beginOp()
		w.leftAt = time.Time{}
		if _, err := w.home.VM.Launch(sysName, "tourist", "tour", bc); err != nil {
			return fmt.Errorf("agent_tour: launch: %w", err)
		}
		got, err := w.collector.Recv(10 * time.Second)
		w.tr.endOp(root)
		if err == nil {
			err = w.checkTour(got)
		}
		// The tour's arrivals are all in the channel by now: the
		// collector's briefcase was sent after the last one.
		var prev time.Time
		for i := 0; len(w.arrivals) > 0; i++ {
			at := <-w.arrivals
			if i > 0 && err == nil {
				rec.ok(at.Sub(prev))
			}
			prev = at
		}
		if err != nil {
			for i := 0; i < tourHops; i++ {
				rec.fail(err)
			}
		}
	}
	return nil
}

// checkTour verifies the delivered RESULTS: one (host, payload) pair per
// stop, in itinerary order, starting at home.
func (w *agentTour) checkTour(bc *briefcase.Briefcase) error {
	res, err := bc.Folder(briefcase.FolderResults)
	if err != nil {
		return errors.New("collector briefcase has no RESULTS")
	}
	rows := res.Bytes()
	if len(rows) != 2*(tourHops+1) {
		return fmt.Errorf("RESULTS has %d elements, want %d", len(rows), 2*(tourHops+1))
	}
	want := append([]string{tourHosts[0]}, w.itinerary...)
	for i, h := range want {
		if string(rows[2*i]) != h || len(rows[2*i+1]) != tourStopBytes {
			return fmt.Errorf("stop %d is %q, want %q", i, rows[2*i], h)
		}
	}
	return nil
}

// check: no transfer was refused, parked or skipped anywhere.
func (w *agentTour) check() error {
	for _, n := range w.sys.Nodes() {
		if err := wantZero(n.FW, "fw.errors", "fw.auth_failures", "fw.expired"); err != nil {
			return err
		}
	}
	return nil
}

// counters adds what the decorators cannot see on core-built nodes: the
// firewalls' own fw.inbound histograms and the network's message count.
func (w *agentTour) counters() map[string]float64 {
	var fws []*firewall.Firewall
	var calls, ns float64
	for _, n := range w.sys.Nodes() {
		fws = append(fws, n.FW)
		h := n.FW.Telemetry().Registry().Histogram("fw.inbound", "host", n.Name)
		calls += float64(h.Count())
		ns += float64(h.Sum())
	}
	out := fwCounters(fws...)
	out["inbound_calls"], out["inbound_ns"] = calls, ns
	for _, l := range w.sys.Net.Stats() {
		out["send_calls"] += float64(l.Messages)
	}
	return out
}

func (w *agentTour) close() {
	if w.sys != nil {
		_ = w.sys.Close()
	}
}
