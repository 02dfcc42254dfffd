// Command taxd runs one live TAX node on TCP: a firewall bound to a real
// socket, the standard VMs and service agents, and a few demo programs.
// Several taxd processes on one machine (or several machines) form a
// deployment that agents migrate between and that taxctl manages.
//
//	taxd -listen 127.0.0.1:27017 &
//	taxd -listen 127.0.0.1:27018 &
//	taxd -listen 127.0.0.1:27019 -launch 'tacoma://127.0.0.1:27018//vm_go,tacoma://127.0.0.1:27017//vm_go'
//
// The third invocation launches the figure-4 hello-world agent with the
// given itinerary; watch it greet each node's stdout in turn.
//
// Observability (-telemetry implies a tower collector; -http and
// -otlp-file imply -telemetry):
//
//	taxd -listen 127.0.0.1:27017 -http 127.0.0.1:9100 &
//	curl http://127.0.0.1:9100/metrics   # Prometheus text exposition
//	curl http://127.0.0.1:9100/traces    # OTLP/JSON trace export
//	taxctl -node 127.0.0.1:27017 explain # merged timeline, latest trace
//
// -pprof additionally mounts net/http/pprof under /debug/pprof/ on the
// -http listener (opt-in: profiling endpoints stay off by default).
// -otlp-file writes one OTLP/JSON export on shutdown.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/cabinet"
	"tax/internal/directory"
	"tax/internal/firewall"
	"tax/internal/identity"
	"tax/internal/policy"
	"tax/internal/services"
	"tax/internal/simnet"
	"tax/internal/telemetry"
	"tax/internal/tower"
	"tax/internal/vclock"
	"tax/internal/vm"
)

// obsvConfig groups the observability-export flags.
type obsvConfig struct {
	// httpAddr serves /metrics and /traces when non-empty.
	httpAddr string
	// pprofOn mounts net/http/pprof on the httpAddr listener.
	pprofOn bool
	// otlpFile receives one OTLP/JSON export on shutdown.
	otlpFile string
}

func main() {
	listen := flag.String("listen", "127.0.0.1:27017", "address to listen on")
	launch := flag.String("launch", "", "comma-separated itinerary; launches the hello_world agent")
	telOn := flag.Bool("telemetry", false, "collect trace spans and audit events (metrics are always on)")
	telDump := flag.String("telemetry-dump", "", "file to periodically write a telemetry JSON snapshot to")
	telEvery := flag.Duration("telemetry-interval", 30*time.Second, "telemetry dump period")
	retry := flag.String("retry", "", "default forward-retry policy 'attempts|backoff|deadline' (durations in ns) for agents without a _RETRY folder")
	fleetN := flag.Int("fleet", 1, "with -launch: number of agent copies to launch")
	fsyncCost := flag.Duration("fsync-cost", cabinet.DefaultSyncLatency, "modeled fsync latency of the node's file cabinet (slept for on a live node)")
	snapEvery := flag.Int("snapshot-every", 0, "cabinet transactions between WAL compactions (0 compacts once the WAL since the last snapshot outweighs the table; negative disables snapshots)")
	batchFrames := flag.Int("batch", 0, "coalesce up to N outbound same-destination frames per network transfer (0 disables batching)")
	policyFile := flag.String("policy", "", "policy ruleset file: default-deny mediation rules + per-principal quotas (hot-reload with 'taxctl policyload')")
	dirPlane := flag.String("dir", "", "comma-separated host:port membership of the leased directory plane; must include this node's address (enrolls an ag_nsd shard, inspect with 'taxctl dir')")
	dirReplicas := flag.Int("dir-replicas", directory.DefaultReplicas, "with -dir: copies of each name binding (clamped to the membership size)")
	dirTTL := flag.Duration("dir-ttl", directory.DefaultTTL, "with -dir: lease length granted to name registrations")
	launchAs := flag.String("launch-principal", "system", "principal the -launch agent runs under (non-system principals are subject to peers' -policy rules)")
	httpAddr := flag.String("http", "", "serve observability over HTTP: /metrics (Prometheus text) and /traces (OTLP/JSON); implies -telemetry")
	pprofOn := flag.Bool("pprof", false, "with -http: also mount net/http/pprof under /debug/pprof/")
	otlpFile := flag.String("otlp-file", "", "write an OTLP/JSON trace export to this file on shutdown; implies -telemetry")
	flag.Parse()
	obsv := obsvConfig{httpAddr: *httpAddr, pprofOn: *pprofOn, otlpFile: *otlpFile}
	if err := run(*listen, *launch, *telOn, *telDump, *telEvery, *retry, *fleetN, *fsyncCost, *snapEvery, *batchFrames, *policyFile, *launchAs, *dirPlane, *dirReplicas, *dirTTL, obsv); err != nil {
		fmt.Fprintln(os.Stderr, "taxd:", err)
		os.Exit(1)
	}
}

func run(listen, launch string, telOn bool, telDump string, telEvery time.Duration, retry string, fleetN int, fsyncCost time.Duration, snapEvery int, batchFrames int, policyFile, launchAs, dirPlane string, dirReplicas int, dirTTL time.Duration, obsv obsvConfig) error {
	if obsv.httpAddr != "" || obsv.otlpFile != "" {
		telOn = true
	}
	var retryPolicy firewall.RetryPolicy
	if retry != "" {
		p, err := firewall.ParseRetryPolicy(retry)
		if err != nil {
			return fmt.Errorf("-retry: %w", err)
		}
		retryPolicy = p
	}

	node, err := simnet.ListenTCP(listen)
	if err != nil {
		return err
	}
	defer func() { _ = node.Close() }()

	host, portStr, err := net.SplitHostPort(node.Addr())
	if err != nil {
		return err
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return err
	}

	// Every taxd trusts the well-known "system" principal by name; the
	// demo deployment model is one administrative domain (§4: single-hop
	// agents within one domain need less machinery than Internet-hostile
	// ones).
	system, err := identity.NewPrincipal("system")
	if err != nil {
		return err
	}
	trust := &identity.TrustStore{}
	trust.AddPrincipal(system, identity.System)

	var tel *telemetry.Telemetry
	var twr *tower.Collector
	if telOn || telDump != "" {
		tel = telemetry.New(telemetry.Options{Host: node.Addr(), Spans: telOn, Events: telOn})
	}
	if telOn {
		// One-node tower: the collector still earns its keep as the flight
		// recorder behind `taxctl explain` and the /metrics and /traces
		// exports; multi-node merged timelines come from the simulation's
		// core.EnableTower.
		twr = tower.New(tower.Options{})
		twr.Attach(tel)
	}
	// A real clock (not the default idle virtual one) so agent run
	// times and trace spans carry wall-clock durations on live nodes —
	// and so the cabinet's fsync cost is actually slept for.
	clock := vclock.NewReal()
	cabOpts := cabinet.Options{
		Clock:         clock,
		FsyncCost:     fsyncCost,
		SnapshotEvery: snapEvery,
		Host:          host,
	}
	if tel != nil {
		cabOpts.Telemetry = tel.Registry()
	}
	if twr != nil {
		cabOpts.Observer = func(op string, at time.Duration, seq uint64) {
			twr.Record(tower.Entry{
				Time:   at,
				Host:   host,
				Kind:   tower.KindCabinet,
				Name:   op,
				Detail: fmt.Sprintf("seq=%d", seq),
			})
		}
	}
	store := cabinet.NewStore(cabOpts)
	fwCfg := firewall.Config{
		HostName:        host,
		Port:            port,
		Node:            node,
		Trust:           trust,
		Clock:           clock,
		Durable:         store,
		SystemPrincipal: "system",
		Resolve: func(h string, p int) (string, error) {
			return net.JoinHostPort(h, strconv.Itoa(p)), nil
		},
		Telemetry:    tel,
		ForwardRetry: retryPolicy,
	}
	if twr != nil {
		fwCfg.Explain = func(traceID string) []string {
			if traceID == "latest" {
				traceID = twr.LatestTrace()
			}
			return twr.Trace(traceID).ExplainLines()
		}
	}
	if batchFrames > 0 {
		// Live nodes run on the real clock, so the defaults' real-time
		// safety flush bounds the latency a coalesced frame can gain.
		fwCfg.Batch = &firewall.BatchConfig{MaxFrames: batchFrames}
	}
	if policyFile != "" {
		text, err := os.ReadFile(policyFile)
		if err != nil {
			return fmt.Errorf("-policy: %w", err)
		}
		rs, err := policy.Parse(string(text))
		if err != nil {
			// An invalid ruleset fails the boot, never the first send.
			return fmt.Errorf("-policy %s: %w", policyFile, err)
		}
		fwCfg.Policy = policy.New(clock, rs, policy.Quota{})
	}
	fw, err := firewall.New(fwCfg)
	if err != nil {
		return err
	}
	defer func() { _ = fw.Close() }()

	if telDump != "" {
		stop := make(chan struct{})
		defer close(stop)
		go dumpTelemetry(fw.Telemetry(), telDump, telEvery, stop)
	}
	if obsv.httpAddr != "" {
		srv := obsvServer(twr, obsv)
		ln, err := net.Listen("tcp", obsv.httpAddr)
		if err != nil {
			return fmt.Errorf("-http: %w", err)
		}
		defer func() { _ = srv.Close() }()
		go func() {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "taxd: http:", err)
			}
		}()
		fmt.Printf("taxd: observability on http://%s/metrics and /traces\n", ln.Addr())
	}

	programs := &vm.Registry{}
	gvm, err := vm.New(vm.Config{FW: fw, Programs: programs, Signer: system})
	if err != nil {
		return err
	}
	defer func() { _ = gvm.Close() }()

	// Standard services plus the figure-4 demo agent.
	programs.Register("ag_fs", services.NewAgFS())
	programs.Register("ag_cabinet", services.NewAgCabinet(store))
	programs.Register("ag_cron", services.NewAgCron())
	for _, svc := range []string{"ag_fs", "ag_cabinet", "ag_cron"} {
		if _, err := gvm.Launch("system", svc, svc, nil); err != nil {
			return err
		}
	}
	// Directory-plane enrollment: this node serves its consistent-hash
	// share of the leased name table, replicating writes to its ring
	// peers; the same membership list (and so the same ring) must be
	// passed to every member.
	if dirPlane != "" {
		members := strings.Split(dirPlane, ",")
		for i := range members {
			members[i] = strings.TrimSpace(members[i])
		}
		self := net.JoinHostPort(host, strconv.Itoa(port))
		enrolled := false
		for _, m := range members {
			if m == self {
				enrolled = true
			}
		}
		if !enrolled {
			return fmt.Errorf("-dir: membership %v does not include this node (%s)", members, self)
		}
		ring, err := directory.NewRing(members, 0, dirReplicas)
		if err != nil {
			return fmt.Errorf("-dir: %w", err)
		}
		dsrv := directory.NewServer(directory.Config{
			Node:      self,
			Ring:      ring,
			FW:        fw,
			Principal: "system",
			Store:     store,
			TTL:       dirTTL,
		})
		programs.Register(directory.ServiceName, dsrv.Handler())
		if _, err := gvm.Launch("system", directory.ServiceName, directory.ServiceName, nil); err != nil {
			return err
		}
		fw.SetDir(dsrv.Rows)
		fmt.Printf("taxd: directory shard %s (ring of %d, %d replicas, ttl %v)\n",
			self, len(ring.Nodes()), ring.Replicas(), dirTTL)
	}

	programs.Register("hello_world", func(ctx *agent.Context) error {
		fmt.Printf("[%s] Hello world (instance %x)\n", node.Addr(), ctx.URI().Instance)
		hosts, err := ctx.Briefcase().Folder(briefcase.FolderHosts)
		if err != nil {
			return err
		}
		for {
			next, ok := hosts.Pop()
			if !ok {
				fmt.Printf("[%s] itinerary complete\n", node.Addr())
				return nil
			}
			if err := ctx.Go(next.String()); errors.Is(err, agent.ErrMoved) {
				return err
			}
			fmt.Printf("[%s] unable to reach %s\n", node.Addr(), next)
		}
	})

	fmt.Printf("taxd listening on %s (agent URIs: tacoma://%s:%d/...)\n", node.Addr(), host, port)

	if launch != "" {
		stops := strings.Split(launch, ",")
		buildBC := func() *briefcase.Briefcase {
			bc := briefcase.New()
			f := bc.Ensure(briefcase.FolderHosts)
			for _, stop := range stops {
				f.AppendString(strings.TrimSpace(stop))
			}
			if telOn {
				id := agent.StampTrace(bc, host)
				fmt.Printf("taxd: launching with trace %s (taxctl trace '%s')\n", id, id)
			}
			return bc
		}
		if fleetN <= 1 {
			if _, err := gvm.Launch(launchAs, "hello", "hello_world", buildBC()); err != nil {
				return err
			}
		} else {
			// Every copy runs under the launch principal, so peers'
			// -policy rules judge each one as they judge a single launch.
			failed := 0
			for i := 0; i < fleetN; i++ {
				if _, err := gvm.Launch(launchAs, fmt.Sprintf("hello-%d", i), "hello_world", buildBC()); err != nil {
					failed++
				}
			}
			fmt.Printf("taxd: fleet launched %d agents (%d failed)\n", fleetN, failed)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("taxd: shutting down")
	if obsv.otlpFile != "" {
		if err := writeOTLPFile(twr, obsv.otlpFile); err != nil {
			fmt.Fprintln(os.Stderr, "taxd: otlp export:", err)
		} else {
			fmt.Println("taxd: wrote", obsv.otlpFile)
		}
	}
	return nil
}

// obsvServer builds the observability HTTP handler: Prometheus text
// metrics, OTLP/JSON traces, and (opt-in) the pprof endpoints.
func obsvServer(twr *tower.Collector, obsv obsvConfig) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		twr.Pull()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := twr.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		twr.Pull()
		w.Header().Set("Content-Type", "application/json")
		if err := twr.WriteOTLP(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if obsv.pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return &http.Server{Handler: mux}
}

// writeOTLPFile snapshots the collector's merged spans as one OTLP/JSON
// export.
func writeOTLPFile(twr *tower.Collector, path string) error {
	twr.Pull()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := twr.WriteOTLP(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// dumpTelemetry periodically overwrites path with a JSON snapshot, and
// writes one final snapshot on shutdown.
func dumpTelemetry(tel *telemetry.Telemetry, path string, every time.Duration, stop <-chan struct{}) {
	if every <= 0 {
		every = 30 * time.Second
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	write := func() {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "taxd: telemetry dump:", err)
			return
		}
		if err := tel.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "taxd: telemetry dump:", err)
		}
		_ = f.Close()
	}
	for {
		select {
		case <-tick.C:
			write()
		case <-stop:
			write()
			return
		}
	}
}
