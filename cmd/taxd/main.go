// Command taxd runs one live TAX node on TCP: the node the simulator
// builds (firewall, the vm_go/vm_bin/vm_c VMs, the standard service
// agents, wrapper stacks rebuilt on arrival), bound to a real socket and
// the real clock, plus the figure-4 hello_world demo program. Several
// taxd processes on one machine (or several machines) form a deployment
// that agents migrate between and that taxctl manages.
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
	"slices"
	"strings"
	"syscall"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/cabinet"
	"tax/internal/core"
	"tax/internal/directory"
	"tax/internal/firewall"
	"tax/internal/simnet"
	"tax/internal/telemetry"
	"tax/internal/tower"
)

// config holds taxd's flag values (main documents each one); boot maps
// them onto core.NodeOptions.
type config struct {
	listen, launch, launchAs, retry, policyFile, dirPlane string
	telDump, httpAddr, otlpFile                           string
	telOn, pprofOn                                        bool
	fleetN, snapEvery, batchFrames, dirReplicas           int
	telEvery, fsyncCost, dirTTL                           time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:27017", "address to listen on")
	flag.StringVar(&cfg.launch, "launch", "", "comma-separated itinerary; launches the hello_world agent")
	flag.BoolVar(&cfg.telOn, "telemetry", false, "collect trace spans and audit events (metrics are always on)")
	flag.StringVar(&cfg.telDump, "telemetry-dump", "", "file to periodically write a telemetry JSON snapshot to")
	flag.DurationVar(&cfg.telEvery, "telemetry-interval", 30*time.Second, "telemetry dump period")
	flag.StringVar(&cfg.retry, "retry", "", "default forward-retry policy 'attempts|backoff|deadline' (durations in ns) for agents without a _RETRY folder")
	flag.IntVar(&cfg.fleetN, "fleet", 1, "with -launch: number of agent copies to launch")
	flag.DurationVar(&cfg.fsyncCost, "fsync-cost", cabinet.DefaultSyncLatency, "modeled fsync latency of the node's file cabinet (slept for on a live node)")
	flag.IntVar(&cfg.snapEvery, "snapshot-every", 0, "cabinet transactions between WAL compactions (0 compacts once the WAL since the last snapshot outweighs the table; negative disables snapshots)")
	flag.IntVar(&cfg.batchFrames, "batch", 0, "coalesce up to N outbound same-destination frames per network transfer (0 disables batching)")
	flag.StringVar(&cfg.policyFile, "policy", "", "policy ruleset file: default-deny mediation rules + per-principal quotas (hot-reload with 'taxctl policyload')")
	flag.StringVar(&cfg.dirPlane, "dir", "", "comma-separated host:port membership of the leased directory plane; must include this node's address (enrolls an ag_nsd shard, inspect with 'taxctl dir')")
	flag.IntVar(&cfg.dirReplicas, "dir-replicas", directory.DefaultReplicas, "with -dir: copies of each name binding (clamped to the membership size)")
	flag.DurationVar(&cfg.dirTTL, "dir-ttl", directory.DefaultTTL, "with -dir: lease length granted to name registrations")
	flag.StringVar(&cfg.launchAs, "launch-principal", "system", "principal the -launch agent runs under (non-system principals are subject to peers' -policy rules)")
	flag.StringVar(&cfg.httpAddr, "http", "", "serve observability over HTTP: /metrics (Prometheus text) and /traces (OTLP/JSON); implies -telemetry")
	flag.BoolVar(&cfg.pprofOn, "pprof", false, "with -http: also mount net/http/pprof under /debug/pprof/")
	flag.StringVar(&cfg.otlpFile, "otlp-file", "", "write an OTLP/JSON trace export to this file on shutdown; implies -telemetry")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "taxd:", err)
		os.Exit(1)
	}
}

// daemon is one booted taxd: the system holding its one live node, and
// the socket under it.
type daemon struct {
	sys  *core.System
	node *core.Node
	tcp  *simnet.TCPNode
}

// Close shuts the node down, then its socket.
func (d *daemon) Close() {
	_ = d.sys.Close()
	_ = d.tcp.Close()
}

// boot listens on cfg.listen and adds the node core.AddTCPNode
// assembles, configured by the flags, with the figure-4 hello_world
// program deployed on it.
func boot(cfg config) (d *daemon, err error) {
	opts := core.NodeOptions{FsyncCost: cfg.fsyncCost, SnapshotEvery: cfg.snapEvery}
	if cfg.retry != "" {
		if opts.ForwardRetry, err = firewall.ParseRetryPolicy(cfg.retry); err != nil {
			return nil, fmt.Errorf("-retry: %w", err)
		}
	}
	if cfg.policyFile != "" {
		text, err := os.ReadFile(cfg.policyFile)
		if err != nil {
			return nil, fmt.Errorf("-policy: %w", err)
		}
		// An invalid ruleset fails the boot, never the first send.
		opts.Policy = string(text)
	}
	if cfg.batchFrames > 0 {
		// Live nodes run on the real clock, so the defaults' real-time
		// safety flush bounds the latency a coalesced frame can gain.
		opts.Batch = &firewall.BatchConfig{MaxFrames: cfg.batchFrames}
	}

	// Every taxd trusts its own "system" principal by name; the demo
	// deployment model is one administrative domain (§4: single-hop
	// agents within one domain need less machinery than Internet-hostile
	// ones). The simulated network the system also holds stays empty.
	sys, err := core.NewSystem(simnet.Profile{})
	if err != nil {
		return nil, err
	}
	tcp, err := simnet.ListenTCP(cfg.listen)
	if err != nil {
		_ = sys.Close()
		return nil, err
	}
	d = &daemon{sys: sys, tcp: tcp}
	defer func() {
		if err != nil {
			d.Close()
			d = nil
		}
	}()
	self := tcp.Addr()
	if cfg.telOn || cfg.httpAddr != "" || cfg.otlpFile != "" {
		// One-node tower: the collector still earns its keep as the
		// flight recorder behind `taxctl explain` and the /metrics and
		// /traces exports; multi-node merged timelines come from the
		// simulation.
		d.sys.EnableTower()
	} else if cfg.telDump != "" {
		opts.Telemetry = telemetry.New(telemetry.Options{Host: self})
	}
	// Directory-plane enrollment: this node serves its consistent-hash
	// share of the leased name table, replicating writes to its ring
	// peers; the same membership list (and so the same ring) must be
	// passed to every member.
	var ring *directory.Ring
	if cfg.dirPlane != "" {
		members := strings.Split(cfg.dirPlane, ",")
		for i := range members {
			members[i] = strings.TrimSpace(members[i])
		}
		if !slices.Contains(members, self) {
			return d, fmt.Errorf("-dir: membership %v does not include this node (%s)", members, self)
		}
		ring, err = d.sys.EnableDirectory(core.DirectoryConfig{
			Nodes: members, Replicas: cfg.dirReplicas, TTL: cfg.dirTTL,
		})
		if err != nil {
			return d, fmt.Errorf("-dir: %w", err)
		}
	}
	if d.node, err = d.sys.AddTCPNode(tcp, opts); err != nil {
		return d, err
	}
	if ring != nil {
		fmt.Printf("taxd: directory shard %s (ring of %d, %d replicas, ttl %v)\n",
			self, len(ring.Nodes()), ring.Replicas(), cfg.dirTTL)
	}
	d.node.Programs.Register("hello_world", func(ctx *agent.Context) error {
		fmt.Printf("[%s] Hello world (instance %x)\n", self, ctx.URI().Instance)
		hosts, err := ctx.Briefcase().Folder(briefcase.FolderHosts)
		if err != nil {
			return err
		}
		for {
			next, ok := hosts.Pop()
			if !ok {
				fmt.Printf("[%s] itinerary complete\n", self)
				return nil
			}
			if err := ctx.Go(next.String()); errors.Is(err, agent.ErrMoved) {
				return err
			}
			fmt.Printf("[%s] unable to reach %s\n", self, next)
		}
	})
	return d, nil
}

func run(cfg config) error {
	d, err := boot(cfg)
	if err != nil {
		return err
	}
	defer d.Close()
	node, twr := d.node, d.sys.Tower()
	self := d.tcp.Addr()

	if cfg.telDump != "" {
		stop := make(chan struct{})
		defer close(stop)
		go dumpTelemetry(node.FW.Telemetry(), cfg.telDump, cfg.telEvery, stop)
	}
	if cfg.httpAddr != "" {
		srv := obsvServer(twr, cfg.pprofOn)
		ln, err := net.Listen("tcp", cfg.httpAddr)
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

	fmt.Printf("taxd listening on %s (agent URIs: tacoma://%s/...)\n", self, self)

	if cfg.launch != "" {
		stops := strings.Split(cfg.launch, ",")
		buildBC := func() *briefcase.Briefcase {
			bc := briefcase.New()
			f := bc.Ensure(briefcase.FolderHosts)
			for _, stop := range stops {
				f.AppendString(strings.TrimSpace(stop))
			}
			if twr != nil {
				id := agent.StampTrace(bc, node.FW.HostName())
				fmt.Printf("taxd: launching with trace %s (taxctl trace '%s')\n", id, id)
			}
			return bc
		}
		if cfg.fleetN <= 1 {
			if _, err := node.VM.Launch(cfg.launchAs, "hello", "hello_world", buildBC()); err != nil {
				return err
			}
		} else {
			// Every copy runs under the launch principal, so peers'
			// -policy rules judge each one as they judge a single launch.
			failed := 0
			for i := 0; i < cfg.fleetN; i++ {
				if _, err := node.VM.Launch(cfg.launchAs, fmt.Sprintf("hello-%d", i), "hello_world", buildBC()); err != nil {
					failed++
				}
			}
			fmt.Printf("taxd: fleet launched %d agents (%d failed)\n", cfg.fleetN, failed)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("taxd: shutting down")
	if cfg.otlpFile != "" {
		if err := writeOTLPFile(twr, cfg.otlpFile); err != nil {
			fmt.Fprintln(os.Stderr, "taxd: otlp export:", err)
		} else {
			fmt.Println("taxd: wrote", cfg.otlpFile)
		}
	}
	return nil
}

// obsvServer builds the observability HTTP handler: Prometheus text
// metrics, OTLP/JSON traces, and (opt-in) the pprof endpoints.
func obsvServer(twr *tower.Collector, pprofOn bool) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := twr.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := twr.WriteOTLP(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if pprofOn {
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
