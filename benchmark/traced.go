package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"tax/internal/firewall"
)

// tracedSlices is the length of each pass of the traced run: about a
// second. The traced passes together (tracedRounds of them) are sixteen
// slices, against the hundred or so an untraced run measures.
const tracedSlices = 8

// counted is implemented by the workloads whose firewalls the benchmark
// can reach: cumulative counters read before and after the traced pass.
type counted interface {
	counters() map[string]float64
}

// countedNames maps the short names the traced pass reads to the
// firewall's telemetry-registry counters.
var countedNames = map[string]string{
	"relayed": "fw.relayed", "batch_frames": "fw.batch_frames", "batch_flushes": "fw.batch_flushes",
	"delivered": "fw.delivered", "forwarded": "fw.forwarded", "parked": "fw.queued",
}

// fwCounters sums those counters over the given firewalls.
func fwCounters(fws ...*firewall.Firewall) map[string]float64 {
	out := map[string]float64{}
	for _, fw := range fws {
		reg := fw.Telemetry().Registry()
		for short, name := range countedNames {
			out[short] += float64(reg.Counter(name, "host", fw.HostName()).Value())
		}
	}
	return out
}

// rung is one row of a workload's ladder: a layer metric and how many
// times one op pays it.
type rung struct {
	metric string
	calls  float64
}

// ladders are the additive models the ladder checks: with one client on
// one thread nothing overlaps, so an op's time should be the sum of its
// layers' isolated costs times their calls per op. What the sum misses
// is printed as ladder.unexplained_ns.
var ladders = map[string][]rung{
	// One Meet is a request and a reply: one bare TCP round trip, and
	// per message an encode, a decode, an origin and an arrival policy
	// evaluation with their charges, and one mediation + mailbox
	// hand-off.
	"msg_rpc_tcp": {
		{"simnet.tcp_rtt_ns", 1},
		{"briefcase.encode_small_ns", 2}, {"briefcase.decode_small_ns", 2},
		{"policy.eval_ns", 4}, {"policy.charge_ns", 4},
		{"firewall.local_rtt_ns", 2},
	},
	// One hop signs, encodes, ships, decodes, verifies, mediates and
	// activates once.
	"agent_tour": {
		{"identity.sign_core_ns", 1}, {"identity.verify_core_ns", 1},
		{"briefcase.encode_agent_ns", 1}, {"briefcase.decode_agent_ns", 1},
		{"simnet.mem_send_agent_ns", 1}, {"firewall.local_rtt_ns", 1}, {"vm.launch_ns", 1},
	},
	// One frame is peeked by two relays, crosses three links in
	// containers of sixteen, and is decoded and delivered once. The
	// origin's 4 KiB encode and the container copies have no isolated
	// timing, so this ladder is expected to fall short.
	"relay_stream": {
		{"briefcase.peek_ns", 2}, {"simnet.mem_send_ns", 3.0 / relayBatch},
		{"briefcase.decode_small_ns", 1}, {"firewall.local_rtt_ns", 1},
	},
	// linkmine.Run is two deployments, a stationary and a mobile scan.
	"e1_scan": {
		{"linkmine.deploy_ns", 2}, {"linkmine.stationary_ns", 1}, {"linkmine.mobile_ns", 1},
	},
	// One fleet crawl generates the site, runs the serial baseline,
	// boots ten nodes, and claims, fetches and completes every URL of
	// the site through the frontier service.
	"fleet_crawl": {
		{"websim.generate_ns", 1}, {"webbot.crawl_ns_per_page", e1Pages}, {"linkmine.fleet_boot_ns", 1},
		{"services.frontier_rpc_ns", 2 * fleetURLs}, {"websim.fetch_ns", fleetURLs},
	},
}

// tracedRounds is how often the traced run alternates an untraced and a
// traced pass of tracedSlices slices each: trace.overhead_pct is the
// difference of two noisy rates, and alternating keeps a drifting
// machine from deciding its sign.
const tracedRounds = 2

// runTraced is the -trace pass: the workload untraced and again with
// the decorators installed, tracedRounds times over, then every
// isolated layer timing. It prints the per-layer metrics; the
// end-to-end ones always come from the untraced run.
func runTraced(name string, seed int64, pinned int) (*result, error) {
	out := metrics{}
	res := &result{Correct: true}
	var refs []float64
	ref := func() { refs = append(refs, float64(refKernel())/1e3) }

	tr := newTracer(1 << 20)
	var plain, traced []*measured
	delta := map[string]float64{}
	for round := 0; round < tracedRounds; round++ {
		for _, tracing := range []bool{false, true} {
			w := newWorkload(name)
			var wtr *tracer
			if tracing {
				wtr = tr
			}
			if _, err := bootAndWarm(w, seed, wtr); err != nil {
				w.close()
				return nil, fmt.Errorf("set-up: %w", err)
			}
			var before map[string]float64
			c, counting := w.(counted)
			if tracing && counting {
				before = c.counters()
			}
			tr.enabled.Store(tracing) // the warm-up is not part of the pass
			m, err := measure(w, forSlices(tracedSlices), ref)
			tr.enabled.Store(false)
			if err != nil {
				w.close()
				return nil, err
			}
			if tracing && counting {
				for k, v := range c.counters() {
					delta[k] += v - before[k]
				}
			}
			res.Attempted += m.rec.attempted
			res.Failed += m.rec.failed
			if m.rec.failed > 0 {
				res.Correct = false
				fmt.Printf("  FAILED ops: first error: %v\n", m.rec.firstErr)
			}
			if err := w.check(); err != nil {
				res.Correct = false
				fmt.Printf("  FAILED whole-run check: %v\n", err)
			}
			w.close()
			if tracing {
				traced = append(traced, m)
			} else {
				plain = append(plain, m)
			}
		}
	}
	p, t := merge(plain), merge(traced)
	ops := float64(t.rec.attempted - t.rec.failed)
	layers := selfTimes(tr.spans)
	inSitu(out, layers, delta, ops)

	plainOps := float64(p.rec.attempted - p.rec.failed)
	out.layer("proc.cpu_us_per_op", float64(p.cpuUS)/plainOps)
	out.layer("proc.op_p99_us", float64(quantileDur(p.rec.lat, 0.99))/1e3)
	out.layer("proc.gc_cycles", float64(p.gcCycles))
	out.layer("proc.gc_pause_total_us", float64(p.gcPause)/1e3)
	plainRate, tracedRate := quietRate(p.sliceRates), quietRate(t.sliceRates)
	out.layer("trace.overhead_pct", (plainRate-tracedRate)/plainRate*100)

	if err := layerTimings(seed, out); err != nil {
		return nil, err
	}
	unpinned, err := unpinnedRate(pinned)
	if err != nil {
		return nil, fmt.Errorf("unpinned side run: %w", err)
	}
	out.layer("proc.unpinned_ops_per_s", unpinned)
	ref()
	out.layer("machine.ref_kernel_us", median(refs))
	nproc := runtime.NumCPU()
	if allowed, ok := parseMask(os.Getenv(envAllowed)); ok {
		nproc = allowed.count() // before the pin narrowed it to one
	}
	out.layer("machine.nproc", float64(nproc))
	out.layer("machine.pinned_cpu", float64(pinned))

	opNS := 1e9 / plainRate
	var explained float64
	fmt.Printf("workload %s seed %d, traced pass: %d ops untraced, %d traced, %d spans (%d dropped)\n",
		name, seed, p.rec.attempted, t.rec.attempted, len(tr.spans), tr.dropped)
	fmt.Printf("  machine: %s, %d CPUs allowed, pinned to CPU %d\n", cpuModel(), nproc, pinned)
	fmt.Printf("  ladder (one op = %.0f ns untraced):\n", opNS)
	for _, r := range ladders[name] {
		ns := out[r.metric].Value * r.calls
		explained += ns
		fmt.Printf("    %-30s x %8.3f = %12.0f ns  %5.1f %%\n", r.metric, r.calls, ns, ns/opNS*100)
	}
	fmt.Printf("    %-30s              %12.0f ns  %5.1f %%\n", "unexplained", opNS-explained, (opNS-explained)/opNS*100)
	out.layer("ladder.explained_share", explained/opNS)
	out.layer("ladder.unexplained_ns", opNS-explained)
	for _, n := range sortedKeys(layers) {
		st := layers[n]
		fmt.Printf("  span %-18s calls/op %8.3f  self %10.0f ns/call\n", n, float64(st.Calls)/ops, float64(st.SelfNS)/float64(st.Calls))
	}
	printMetrics(out)
	if missing := out.missingLayers(); len(missing) > 0 {
		return nil, fmt.Errorf("traced pass did not produce %v", missing)
	}
	if err := tr.write(name, layers); err != nil {
		return nil, err
	}
	res.Metrics = out
	return res, nil
}

// inSitu records the figures the traced workload itself yields: from
// the decorators where the benchmark builds the firewalls, from the
// firewall's own histogram and the network's link counters where core
// builds them (agent_tour), and 0 where neither is in reach (the two
// crawls).
func inSitu(out metrics, layers map[string]*layerStat, delta map[string]float64, ops float64) {
	if st := layers[layerNames[spanInbound]]; st != nil {
		delta["inbound_calls"], delta["inbound_ns"] = float64(st.Calls), float64(st.SelfNS)
	}
	if st := layers[layerNames[spanSend]]; st != nil {
		delta["send_calls"] = float64(st.Calls)
	}
	if st := layers[layerNames[spanGo]]; st != nil {
		delta["go_calls"], delta["go_ns"] = float64(st.Calls), float64(st.Total)
	}
	out.layer("firewall.inbound_ns", ratio(delta["inbound_ns"], delta["inbound_calls"]))
	out.layer("firewall.inbound_calls_per_op", delta["inbound_calls"]/ops)
	out.layer("simnet.send_calls_per_op", delta["send_calls"]/ops)
	out.layer("firewall.relay_frames_per_op", delta["relayed"]/ops)
	out.layer("firewall.batch_frames_per_flush", ratio(delta["batch_frames"], delta["batch_flushes"]))
	out.layer("firewall.delivered_per_op", delta["delivered"]/ops)
	out.layer("firewall.forwarded_per_op", delta["forwarded"]/ops)
	out.layer("firewall.parked_per_op", delta["parked"]/ops)
	out.layer("agent.go_ns", ratio(delta["go_ns"], delta["go_calls"]))
}

// ratio is a/b, and 0 where the workload never reached the layer.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// merge adds up the passes of one kind.
func merge(ms []*measured) *measured {
	sum := &measured{}
	for _, m := range ms {
		sum.rec.attempted += m.rec.attempted
		sum.rec.failed += m.rec.failed
		sum.rec.lat = append(sum.rec.lat, m.rec.lat...)
		sum.sliceRates = append(sum.sliceRates, m.sliceRates...)
		sum.cpuUS += m.cpuUS
		sum.gcCycles += m.gcCycles
		sum.gcPause += m.gcPause
	}
	return sum
}

func sortedKeys(m map[string]*layerStat) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// cpuModel reads the processor name for the report; it is a string, so
// it is printed, not a metric.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown CPU"
}

// envUnpinnedChild marks the side run behind proc.unpinned_ops_per_s:
// the same binary on every allowed CPU with the runtime's defaults.
const envUnpinnedChild = "TAXPERF_UNPINNED"

// unpinnedRate runs fleet_crawl for a few ops in a child process that is
// not pinned, so the gap between one CPU and all of them stays visible
// until a runner with enough cores to gate it exists.
func unpinnedRate(pinned int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(scrubEnv(os.Environ()), envUnpinnedChild+"=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	// The child inherits the affinity of the thread that forks it:
	// widen this one for the fork, then narrow it again.
	allowed, widen := parseMask(os.Getenv(envAllowed))
	widen = widen && pinned >= 0
	runtime.LockOSThread()
	if widen {
		widen = setAffinity(allowed) == nil
	}
	err = cmd.Start()
	if widen {
		var one cpuMask
		one.set(pinned)
		_ = setAffinity(one)
	}
	runtime.UnlockOSThread()
	if err != nil {
		return 0, err
	}
	var rate float64
	_, scanErr := fmt.Fscan(stdout, &rate)
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if scanErr != nil {
		return 0, scanErr
	}
	return rate, nil
}

// unpinnedOps is how many crawls the side run times, after two to warm.
const unpinnedOps = 12

// unpinnedChild is the child's main: it prints the fleet_crawl rate it
// saw and exits.
func unpinnedChild() int {
	w := newWorkload("fleet_crawl")
	defer w.close()
	if err := w.setup(1, nil); err != nil {
		fmt.Fprintln(os.Stderr, "taxperf: unpinned side run:", err)
		return 1
	}
	var rec recorder
	if err := w.run(2, &rec); err != nil { // warm
		fmt.Fprintln(os.Stderr, "taxperf: unpinned side run:", err)
		return 1
	}
	rec = recorder{}
	t0 := time.Now()
	err := w.run(unpinnedOps, &rec)
	if err != nil || rec.failed > 0 {
		fmt.Fprintln(os.Stderr, "taxperf: unpinned side run:", err, rec.firstErr)
		return 1
	}
	fmt.Println(strconv.FormatFloat(float64(rec.attempted)/time.Since(t0).Seconds(), 'f', 4, 64))
	return 0
}
