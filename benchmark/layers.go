package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/cabinet"
	"tax/internal/core"
	"tax/internal/firewall"
	"tax/internal/frontier"
	"tax/internal/identity"
	"tax/internal/linkmine"
	"tax/internal/policy"
	"tax/internal/services"
	"tax/internal/simnet"
	"tax/internal/uri"
	"tax/internal/vclock"
	"tax/internal/webbot"
	"tax/internal/websim"
	"tax/internal/wrapper"
)

// timeOp prices fn in isolation: eleven batches of about ten
// milliseconds each, reported as the median batch's nanoseconds per
// call, so a descheduling stall costs one batch, not the figure.
func timeOp(fn func()) float64 {
	fn() // warm
	iters := 1
	for {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if d := time.Since(t0); d >= 2*time.Millisecond || iters >= 1<<20 {
			iters = int(float64(iters) * float64(10*time.Millisecond) / float64(d+1))
			if iters < 1 {
				iters = 1
			}
			break
		}
		iters *= 4
	}
	batches := make([]float64, 11)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		batches[b] = float64(time.Since(t0)) / float64(iters)
	}
	return median(batches)
}

// timeEach returns the median duration of n single calls, for
// operations that change state and so cannot be looped in place.
func timeEach(n int, fn func(i int)) float64 {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		fn(i)
		ds[i] = float64(time.Since(t0))
	}
	return median(ds)
}

// allocsPer counts heap allocations per call of fn.
func allocsPer(n int, fn func()) float64 {
	fn()
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// must panics on a layer-timing set-up failure; layerTimings turns the
// panic back into an error. The fixtures below are fixed and tiny, so a
// failure is a broken build, not an input.
func must(err error) {
	if err != nil {
		panic(layerFailure{err})
	}
}

type layerFailure struct{ err error }

// layerTimings runs every isolated layer measurement. Each calls only
// public functions; none depends on the workload being traced.
func layerTimings(seed int64, out metrics) (err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(layerFailure)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("layer timings: %w", f.err)
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	codecLayers(rng, out)
	policyLayers(out)
	firewallLayers(rng, out)
	simnetLayers(rng, out)
	cabinetLayers(out)
	frontierLayers(out)
	directoryLayers(out)
	vmLayers(out)
	crawlLayers(out)
	rpcVariantLayers(seed, out)
	return nil
}

// smallBriefcase is the msg_rpc_tcp request as it crosses the wire.
func smallBriefcase(rng *rand.Rand) *briefcase.Briefcase {
	body := make([]byte, 256)
	rng.Read(body)
	bc := briefcase.New()
	bc.Ensure("BODY").Append(body)
	bc.SetString(briefcase.FolderSysTarget, "tacoma://127.0.0.1:40000/tenant1/echo")
	bc.SetString(briefcase.FolderSysSender, "tacoma://127.0.0.1:40001/tenant1/client:1000")
	bc.SetString(firewall.FolderMsgID, "m-123456")
	return bc
}

// agentBriefcase is the agent_tour briefcase mid-tour, as a transfer.
func agentBriefcase(rng *rand.Rand, signer *identity.Principal) *briefcase.Briefcase {
	code := make([]byte, tourCodeBytes)
	rng.Read(code)
	bc := briefcase.New()
	bc.Ensure(briefcase.FolderCode).Append([]byte("tour"), code)
	for i := 0; i < tourHops/2; i++ {
		bc.Ensure(briefcase.FolderHosts).AppendString("tacoma://h2//vm_go")
		bc.Ensure(briefcase.FolderResults).Append([]byte("h1"), make([]byte, tourStopBytes))
	}
	bc.SetString(firewall.FolderKind, firewall.KindTransfer)
	bc.SetString(briefcase.FolderSysTarget, "tacoma://h2//vm_go")
	bc.SetString(briefcase.FolderSysSender, "tacoma://h1/system/tourist:1000")
	firewall.SignCore(bc, signer)
	return bc
}

func codecLayers(rng *rand.Rand, out metrics) {
	small := smallBriefcase(rng)
	smallFrame := small.Encode()
	out.layer("briefcase.encode_small_ns", timeOp(func() { _, release := small.EncodePooled(); release() }))
	out.layer("briefcase.decode_small_ns", timeOp(func() { _, _ = briefcase.Decode(smallFrame) }))
	out.layer("briefcase.decode_small_allocs", allocsPer(1000, func() { _, _ = briefcase.Decode(smallFrame) }))

	signer, err := identity.NewPrincipal("system")
	must(err)
	trust := &identity.TrustStore{}
	trust.AddPrincipal(signer, identity.System)
	ag := agentBriefcase(rng, signer)
	agFrame := ag.Encode()
	out.layer("briefcase.encode_agent_ns", timeOp(func() { _, release := ag.EncodePooled(); release() }))
	out.layer("briefcase.decode_agent_ns", timeOp(func() { _, _ = briefcase.Decode(agFrame) }))

	relay := briefcase.New()
	relay.Ensure("BODY").Append(make([]byte, 4<<10))
	relay.SetString(briefcase.FolderSysTarget, "tacoma://d/system/dst")
	relay.SetString(briefcase.FolderSysSender, "tacoma://a/system/src:1000")
	relayFrame := relay.Encode()
	out.layer("briefcase.peek_ns", timeOp(func() { _, _ = briefcase.Peek(relayFrame, briefcase.FolderSysTarget) }))

	out.layer("identity.sign_core_ns", timeOp(func() { firewall.SignCore(ag, signer) }))
	out.layer("identity.verify_core_ns", timeOp(func() { _, _ = firewall.VerifyCore(ag, trust, identity.Untrusted) }))
}

func policyLayers(out metrics) {
	eng := newRPCPolicy(vclock.NewReal())
	target, err := uri.Parse("tacoma://127.0.0.1:40000/tenant1/echo")
	must(err)
	if v := eng.Eval("tenant1", policy.OpSend, target); v.Effect != policy.Allow {
		must(fmt.Errorf("policy fixture: tenant1 send is %v, want allow", v.Effect))
	}
	out.layer("policy.eval_ns", timeOp(func() { eng.Eval("tenant1", policy.OpSend, target) }))
	out.layer("policy.charge_ns", timeOp(func() { eng.Charge("tenant1", 400) }))
}

// firewallLayers prices one local Send+Recv between two registrations
// of one firewall, with the policy engine off and on.
func firewallLayers(rng *rand.Rand, out metrics) {
	for _, engine := range []bool{false, true} {
		net := simnet.New(simnet.LAN100)
		host, err := net.AddHost("l")
		must(err)
		trust := &identity.TrustStore{}
		cfg := firewall.Config{HostName: "l", Node: host, Trust: trust, SystemPrincipal: "system"}
		if engine {
			cfg.Policy = newRPCPolicy(vclock.NewReal())
		}
		fw, err := firewall.New(cfg)
		must(err)
		src, err := fw.Register("vm", "tenant1", "src")
		must(err)
		dst, err := fw.Register("vm", "tenant1", "dst")
		must(err)
		bc := smallBriefcase(rng)
		bc.SetString(briefcase.FolderSysTarget, "tacoma://l/tenant1/dst")
		sender := src.GlobalURI()
		rtt := func() {
			if err := fw.Send(sender, bc); err != nil {
				must(err)
			}
			if _, ok := dst.TryRecv(); !ok {
				must(fmt.Errorf("local send was not delivered"))
			}
		}
		if engine {
			out.layer("firewall.local_rtt_policy_ns", timeOp(rtt))
		} else {
			out.layer("firewall.local_rtt_ns", timeOp(rtt))
			out.layer("firewall.local_rtt_allocs", allocsPer(1000, rtt))
		}
		_ = fw.Close()
		_ = net.Close()
	}
}

// simnetLayers prices the bare transports, no firewall on top: a TCP
// loopback ping-pong between two TCPNodes, and an in-process one
// between two Hosts.
func simnetLayers(rng *rand.Rand, out metrics) {
	a, err := simnet.ListenTCP("127.0.0.1:0")
	must(err)
	b, err := simnet.ListenTCP("127.0.0.1:0")
	must(err)
	small := make([]byte, 330) // the msg_rpc_tcp frame size
	rng.Read(small)
	back := make(chan struct{}, 1)
	b.SetHandler(func(from string, p []byte) { _ = b.Send(from, p) })
	a.SetHandler(func(string, []byte) { back <- struct{}{} })
	var sendNS []float64
	pingTCP := func() {
		t0 := time.Now()
		must(a.Send(b.Addr(), small))
		sendNS = append(sendNS, float64(time.Since(t0)))
		<-back
	}
	for i := 0; i < 200; i++ {
		pingTCP() // dial both directions, warm the sockets
	}
	sendNS = sendNS[:0]
	out.layer("simnet.tcp_rtt_ns", timeOp(pingTCP))
	out.layer("simnet.tcp_send_ns", median(sendNS))
	_ = a.Close()
	_ = b.Close()

	for _, c := range []struct {
		name string
		size int
	}{{"simnet.mem_send_ns", 4 << 10}, {"simnet.mem_send_agent_ns", tourCodeBytes}} {
		net := simnet.New(simnet.LAN100)
		x, err := net.AddHost("x")
		must(err)
		y, err := net.AddHost("y")
		must(err)
		payload := make([]byte, c.size)
		y.SetHandler(func(from string, p []byte) { _ = y.Send(from, p) })
		x.SetHandler(func(string, []byte) { back <- struct{}{} })
		rtt := timeOp(func() {
			must(x.Send("y", payload))
			<-back
		})
		out.layer(c.name, rtt/2) // one way: copy, enqueue, dispatch
		_ = net.Close()
	}
}

// cabinetLayers prices one durable commit alone and from eight
// concurrent committers under group commit. The disk is cabinet's
// simulated one — its fsync latency is virtual-clock arithmetic — so
// these are the store's CPU cost; there is no real-file backend to
// fsync yet.
func cabinetLayers(out metrics) {
	value := make([]byte, 128)
	solo := cabinet.NewStore(cabinet.Options{Clock: vclock.NewVirtual()})
	i := 0
	out.layer("cabinet.commit_ns", timeOp(func() {
		i++
		must(solo.Commit([]cabinet.Op{{Key: fmt.Sprintf("k/%06d", i%4096), Value: value}}))
	}))

	const committers, perCommitter = 8, 2000
	group := cabinet.NewStore(cabinet.Options{Clock: vclock.NewVirtual(), GroupCommit: true})
	var wg sync.WaitGroup
	errs := make([]error, committers) // one slot per committer: must is for this goroutine only
	t0 := time.Now()
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCommitter && errs[c] == nil; i++ {
				errs[c] = group.Commit([]cabinet.Op{{Key: fmt.Sprintf("g%d/%06d", c, i%512), Value: value}})
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		must(err)
	}
	txns := float64(committers * perCommitter)
	out.layer("cabinet.commit_group_ns", float64(time.Since(t0))/txns)
	out.layer("cabinet.syncs_per_txn", float64(group.Disk().Syncs())/txns)
}

// frontierLayers prices add / claim / complete on an in-memory frontier
// and on one journaling every transition through a cabinet WAL.
func frontierLayers(out metrics) {
	const urls = 3000
	for _, wal := range []bool{false, true} {
		opts := frontier.Options{}
		suffix := "_ns"
		if wal {
			opts.Store = cabinet.NewStore(cabinet.Options{Clock: vclock.NewVirtual()})
			suffix = "_wal_ns"
		}
		fr, err := frontier.New(opts)
		must(err)
		url := func(i int) string { return fmt.Sprintf("http://webserv/d%d/page%05d.html", i%7, i) }
		add := timeEach(urls, func(i int) {
			_, _, err := fr.Add([]frontier.Link{{URL: url(i), Referrer: "http://webserv/", Depth: 1 + i%3}})
			must(err)
		})
		claims := make([]*frontier.Claim, urls)
		claim := timeEach(urls, func(i int) {
			cl, ok := fr.Claim(fmt.Sprintf("w%d", i))
			if !ok {
				must(fmt.Errorf("frontier: nothing to claim at %d", i))
			}
			claims[i] = cl
		})
		complete := timeEach(urls, func(i int) {
			cl := claims[i]
			_, err := fr.Complete(cl.URL, fmt.Sprintf("w%d", i), &frontier.PageRecord{
				URL: cl.URL, Depth: cl.Depth, Status: 200, Bytes: 3400, Type: "text/html", Digest: "200|3400|12",
			})
			must(err)
		})
		out.layer("frontier.add"+suffix, add)
		out.layer("frontier.claim"+suffix, claim)
		out.layer("frontier.complete"+suffix, complete)
		fr.Close()
	}

	// One claim through the ag_frontier service, over the firewall.
	sys, err := core.NewSystem(simnet.LAN100)
	must(err)
	defer func() { _ = sys.Close() }()
	for _, h := range []string{"mine", "w1"} {
		_, err := sys.AddNode(h, core.NodeOptions{NoCVM: true})
		must(err)
	}
	mine, err := sys.Node("mine")
	must(err)
	w1, err := sys.Node("w1")
	must(err)
	fr, err := frontier.New(frontier.Options{Store: mine.Cabinet, Namespace: "fr/"})
	must(err)
	const rpcs = 600
	links := make([]frontier.Link, rpcs)
	for i := range links {
		links[i] = frontier.Link{URL: fmt.Sprintf("http://webserv/page%05d.html", i), Depth: 1}
	}
	_, _, err = fr.Add(links)
	must(err)
	mine.Programs.Register(linkmine.FrontierService, services.NewAgFrontier(fr, nil))
	_, err = mine.VM.Launch(sys.SystemPrincipal.Name(), linkmine.FrontierService, linkmine.FrontierService, nil)
	must(err)
	reg, err := w1.FW.Register("bench", sys.SystemPrincipal.Name(), "fetcher")
	must(err)
	ctx := agent.NewContext(w1.FW, reg, briefcase.New(), nil, nil)
	client := services.FrontierClient{Service: "tacoma://mine//" + linkmine.FrontierService, Timeout: 5 * time.Second}
	out.layer("services.frontier_rpc_ns", timeEach(rpcs, func(i int) {
		_, state, err := client.Claim(ctx, fmt.Sprintf("w%d", i))
		must(err)
		if state != services.FrontierStateClaimed {
			must(fmt.Errorf("frontier rpc %d: state %q", i, state))
		}
	}))
}

// directoryLayers prices the leased, sharded name service: bind and
// lookup on a 4-shard R=2 plane holding 10 000 names, lookup with the
// owner crashed, and the ring's load balance. No workload binds names
// today; this is the baseline the ring-hash fix and lease reuse need.
func directoryLayers(out metrics) {
	const names = 10_000
	members := []string{"d0", "d1", "d2", "d3"}
	sys, err := core.NewSystem(simnet.LAN100)
	must(err)
	defer func() { _ = sys.Close() }()
	// Leases live on the virtual clock, which ten thousand LAN100
	// round trips advance past the default TTL: no expiry here.
	ring, err := sys.EnableDirectory(core.DirectoryConfig{Nodes: members, Replicas: 2, TTL: -1})
	must(err)
	for _, h := range append(members, "c") {
		_, err := sys.AddNode(h, core.NodeOptions{NoCVM: true})
		must(err)
	}
	c, err := sys.Node("c")
	must(err)
	reg, err := c.FW.Register("bench", sys.SystemPrincipal.Name(), "binder")
	must(err)
	ctx := agent.NewContext(c.FW, reg, briefcase.New(), nil, nil)
	client, err := sys.DirectoryClient()
	must(err)

	name := func(i int) string { return fmt.Sprintf("agent-%05d", i) }
	load := map[string]int{}
	out.layer("directory.bind_ns", timeEach(names, func(i int) {
		load[ring.Owner(name(i))]++
		must(client.Bind(ctx, name(i), "tacoma://h1/system/"+name(i)))
	}))
	out.layer("directory.lookup_ns", timeEach(2000, func(i int) {
		_, err := client.Lookup(ctx, name(i*5%names))
		must(err)
	}))
	loads := make([]int, 0, len(members))
	for _, m := range members {
		loads = append(loads, load[m])
	}
	sort.Ints(loads)
	out.layer("directory.shard_load_max_over_min", float64(loads[len(loads)-1])/float64(loads[0]))

	sys.Net.Crash("d0")
	var orphans []string
	for i := 0; i < names && len(orphans) < 500; i++ {
		if ring.Owner(name(i)) == "d0" {
			orphans = append(orphans, name(i))
		}
	}
	out.layer("directory.failover_lookup_ns", timeEach(len(orphans), func(i int) {
		_, err := client.Lookup(ctx, orphans[i])
		must(err)
	}))
}

// vmLayers prices one activation: VM.Launch to the handler's first
// instruction.
func vmLayers(out metrics) {
	sys, err := core.NewSystem(simnet.LAN100)
	must(err)
	defer func() { _ = sys.Close() }()
	node, err := sys.AddNode("h1", core.NodeOptions{NoCVM: true})
	must(err)
	started := make(chan time.Time, 1)
	sys.DeployProgram("noop", func(*agent.Context) error {
		started <- time.Now()
		return nil
	})
	ds := make([]float64, 1000)
	for i := range ds {
		t0 := time.Now()
		_, err := node.VM.Launch(sys.SystemPrincipal.Name(), "noop", "noop", nil)
		must(err)
		ds[i] = float64((<-started).Sub(t0))
	}
	out.layer("vm.launch_ns", median(ds))
}

// crawlLayers splits the two crawl workloads' ops into their phases
// through public functions: site generation, the robot alone on a
// loopback fetcher (decorated, for the per-fetch share), and linkmine's
// deployment / stationary / mobile / fleet-boot steps one at a time.
func crawlLayers(out metrics) {
	spec := e1Spec(1)
	var site *websim.Site
	out.layer("websim.generate_ns", medianOf(5, func() {
		var err error
		site, err = websim.Generate(spec)
		must(err)
	}))
	out.layer("webbot.robots_parse_ns", timeOp(func() { webbot.ParseRobots(site.RobotsTxt()) }))

	tr := newTracer(4 * e1Pages)
	tr.enabled.Store(true)
	crawl := func(decorate bool) {
		clock := vclock.NewVirtual()
		var f websim.ForkableFetcher = &websim.Client{
			Server: websim.DefaultServer(site), Universe: &websim.Universe{Origin: site},
			Link: simnet.Loopback, Clock: clock,
		}
		if decorate {
			f = traceFetcher(f, tr)
		}
		st, err := webbot.New(f, webbot.WithClock(clock), webbot.WithMaxDepth(4),
			webbot.WithPrefix("http://"+spec.Host+"/")).RunCtx(context.Background(), site.Root)
		must(err)
		if st.PagesVisited != e1Pages {
			must(fmt.Errorf("robot visited %d pages, want %d", st.PagesVisited, e1Pages))
		}
	}
	out.layer("webbot.crawl_ns_per_page", medianOf(5, func() { crawl(false) })/e1Pages)
	crawl(true)
	fetch := selfTimes(tr.spans)["websim.fetch"]
	out.layer("websim.fetch_ns", float64(fetch.SelfNS)/float64(fetch.Calls))
	out.layer("websim.fetch_calls_per_op", float64(fetch.Calls))

	var dep *linkmine.Deployment
	var stationary, mobile *linkmine.Report
	var deploy, statNS, mobNS []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		var err error
		dep, err = linkmine.NewDeployment(linkmine.Config{Spec: spec})
		must(err)
		t1 := time.Now()
		stationary, err = dep.RunStationary()
		must(err)
		t2 := time.Now()
		_ = dep.Close()
		dep, err = linkmine.NewDeployment(linkmine.Config{Spec: spec})
		must(err)
		t3 := time.Now()
		mobile, err = dep.RunMobile()
		must(err)
		t4 := time.Now()
		_ = dep.Close()
		deploy = append(deploy, float64(t1.Sub(t0)), float64(t3.Sub(t2)))
		statNS = append(statNS, float64(t2.Sub(t1)))
		mobNS = append(mobNS, float64(t4.Sub(t3)))
	}
	out.layer("linkmine.deploy_ns", median(deploy))
	out.layer("linkmine.stationary_ns", median(statNS))
	out.layer("linkmine.mobile_ns", median(mobNS))
	cmp := linkmine.Comparison{Stationary: stationary, Mobile: mobile}
	out.layer("linkmine.virtual_stationary_s", stationary.ScanElapsed.Seconds())
	out.layer("linkmine.virtual_mobile_s", mobile.ScanElapsed.Seconds())
	out.layer("linkmine.virtual_speedup_pct", cmp.SpeedupPercent())

	out.layer("linkmine.fleet_boot_ns", medianOf(5, func() {
		sys, err := core.NewSystem(simnet.LAN100)
		must(err)
		for _, h := range []string{"base", "mine", "w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8"} {
			_, err := sys.AddNode(h, core.NodeOptions{NoCVM: true, DedupWindow: 256})
			must(err)
		}
		_ = sys.Close()
	}))
}

// medianOf times n single runs of fn.
func medianOf(n int, fn func()) float64 {
	return timeEach(n, func(int) { fn() })
}

// rpcVariantLayers prices what observability and wrappers add to a
// Meet. Both compare two set-ups whose difference is small against the
// machine's drift, so the two sides run interleaved, a short round each
// in turn, and the medians are compared.
func rpcVariantLayers(seed int64, out metrics) {
	// Spans and audit events on both firewalls of the msg_rpc_tcp
	// topology, against the same topology with them off.
	variants := []*msgRPC{{}, {telemetry: true}}
	for _, v := range variants {
		must(v.setup(seed, nil))
		defer v.close()
	}
	const rounds, perRound = 40, 300
	recs := make([]recorder, len(variants))
	for r := 0; r < rounds; r++ {
		for i, v := range variants {
			must(v.run(perRound, &recs[i]))
		}
	}
	p50 := make([]float64, len(variants))
	for i := range recs {
		if recs[i].failed > 0 {
			must(fmt.Errorf("rpc variant %d: %d ops failed: %v", i, recs[i].failed, recs[i].firstErr))
		}
		p50[i] = float64(quantileDur(recs[i].lat[perRound:], 0.5)) // round one warmed the sockets
	}
	out.layer("telemetry.rpc_overhead_pct", (p50[1]-p50[0])/p50[0]*100)

	// Meet through zero and four pass-through wrappers, against an
	// echo agent on the same firewall: without the network under it the
	// interception cost is a measurable share of the round trip.
	bare, wrapped := newLocalMeet(0), newLocalMeet(4)
	defer bare.close()
	defer wrapped.close()
	var bareNS, wrappedNS []float64
	for r := 0; r < 5; r++ {
		bareNS = append(bareNS, timeOp(bare.meet))
		wrappedNS = append(wrappedNS, timeOp(wrapped.meet))
	}
	out.layer("wrapper.meet_ns_per_wrapper", (median(wrappedNS)-median(bareNS))/4)
}

// localMeet is a client and an echo agent registered on one firewall.
type localMeet struct {
	net    *simnet.Network
	fw     *firewall.Firewall
	client *agent.Context
	done   chan struct{}
}

func newLocalMeet(wrappers int) *localMeet {
	net := simnet.New(simnet.LAN100)
	host, err := net.AddHost("l")
	must(err)
	fw, err := firewall.New(firewall.Config{HostName: "l", Node: host, Trust: &identity.TrustStore{}, SystemPrincipal: "system"})
	must(err)
	creg, err := fw.Register("vm", "system", "client")
	must(err)
	ereg, err := fw.Register("vm", "system", "echo")
	must(err)
	m := &localMeet{net: net, fw: fw, client: agent.NewContext(fw, creg, briefcase.New(), nil, nil), done: make(chan struct{})}
	if wrappers > 0 {
		ws := make([]wrapper.Wrapper, wrappers)
		for i := range ws {
			ws[i] = passThrough{}
		}
		must(wrapper.NewStack(ws...).Install(m.client))
	}
	echo := agent.NewContext(fw, ereg, briefcase.New(), nil, nil)
	go func() {
		defer close(m.done)
		for {
			req, err := echo.Await(0)
			if err != nil {
				return
			}
			_ = echo.Reply(req, briefcase.New())
		}
	}()
	return m
}

func (m *localMeet) meet() {
	_, err := m.client.Meet("tacoma://l/system/echo", briefcase.New(), 5*time.Second)
	must(err)
}

func (m *localMeet) close() {
	_ = m.fw.Close()
	_ = m.net.Close()
	<-m.done
}

// passThrough is a wrapper that forwards every briefcase unchanged:
// wrapper.meet_ns_per_wrapper prices the interception itself.
type passThrough struct{}

func (passThrough) Name() string              { return "passthrough" }
func (passThrough) Init(*agent.Context) error { return nil }
func (passThrough) OnSend(_ *agent.Context, bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	return bc, nil
}
func (passThrough) OnReceive(_ *agent.Context, bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	return bc, nil
}
