package linkmine

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/core"
	"tax/internal/faults"
	"tax/internal/firewall"
	"tax/internal/frontier"
	"tax/internal/services"
	"tax/internal/simnet"
	"tax/internal/vclock"
	"tax/internal/webbot"
	"tax/internal/websim"
)

// FrontierService is the shared frontier's agent name on the mine host.
const FrontierService = "ag_frontier"

// restartDelay is how long a crashed frontier host stays down.
const restartDelay = 50 * time.Millisecond

// FrontierFleetConfig parameterizes the shared-frontier fleet: N
// fetcher agents on their own hosts, all claiming URLs from one
// ag_frontier service over the firewall. It is the staged crawler's
// distribution story — the same frontier transactions that make a
// local crawl crash-resumable make a fleet's claims exactly-once.
type FrontierFleetConfig struct {
	// Agents is the fetcher-agent count; default 8.
	Agents int
	// MaxDepth is the crawl depth constraint; default 4.
	MaxDepth int
	// Host names the simulated web server; default "webserv".
	Host string
	// Drop, Duplicate, Delay are per-transfer fault probabilities bound
	// to the deployment's network (zero: clean run).
	Drop, Duplicate, Delay float64
	// FaultSeed drives the fault plan.
	FaultSeed int64
	// CrashAppend, when positive, crashes the frontier host mid-crawl:
	// at its cabinet's Nth WAL append. The host restarts after
	// restartDelay and the service resumes from durable state.
	CrashAppend int
}

func (c FrontierFleetConfig) withDefaults() FrontierFleetConfig {
	if c.Agents <= 0 {
		c.Agents = 8
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 4
	}
	if c.Host == "" {
		c.Host = "webserv"
	}
	return c
}

// FrontierFleetReport is the observable outcome of one fleet crawl.
type FrontierFleetReport struct {
	// Agents is the fetcher count that ran.
	Agents int
	// Serial is the single-robot baseline's Stats.
	Serial *webbot.Stats
	// Aggregate is StatsFromRecords over the fleet's completed records.
	Aggregate *webbot.Stats
	// Identical reports Aggregate == Serial, field for field.
	Identical bool
	// Records counts completed fetch records.
	Records int
	// TotalFetches counts actual page fetches across all agents.
	TotalFetches int
	// DoubleFetched lists URLs fetched more than once (must be empty:
	// claims are leased durably before any fetch happens).
	DoubleFetched []string
	// Counts is the frontier's final state snapshot.
	Counts frontier.Counts
	// Crashed reports whether the frontier host crash was injected.
	Crashed bool
	// WorkerErrors collects fetcher agents' terminal errors.
	WorkerErrors []string
	// RPCs counts the briefcases the frontier host's firewall delivered:
	// every request to ag_frontier, retries and duplicates included.
	RPCs int64
}

// fleetLease is how many URLs a fetcher holds at once: each round trip
// reports a whole lease's records and brings the next. A variable so a
// test can run the fleet at other leases.
var fleetLease = 8

// RunFrontierFleet boots base + mine + N worker hosts, serves one
// durable frontier from mine, seeds the root URL, lets the fleet drain
// it — optionally through message faults and a mid-crawl crash of the
// frontier host — and folds the completed records into aggregate Stats
// to compare against the serial robot's.
func RunFrontierFleet(cfg FrontierFleetConfig) (*FrontierFleetReport, error) {
	cfg = cfg.withDefaults()
	lease := fleetLease
	site, err := websim.Generate(websim.CaseStudySpec(cfg.Host))
	if err != nil {
		return nil, err
	}
	prefix := prefixOf(site)

	// The baseline: one serial robot over the same site and link.
	serialClock := vclock.NewVirtual()
	serial := newRobot(fetcher(site, simnet.LAN100, serialClock), serialClock, cfg.MaxDepth, prefix)
	serialStats, err := serial.RunCtx(context.Background(), site.Root)
	if err != nil {
		return nil, err
	}

	hosts := []string{"base", "mine"}
	for i := 0; i < cfg.Agents; i++ {
		hosts = append(hosts, fmt.Sprintf("w%d", i+1))
	}
	sys, nodes, err := boot(simnet.LAN100, hosts, 256)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if cfg.Drop > 0 || cfg.Duplicate > 0 || cfg.Delay > 0 {
		faults.New(faults.Config{
			Seed:      cfg.FaultSeed,
			Drop:      cfg.Drop,
			Duplicate: cfg.Duplicate,
			Delay:     cfg.Delay,
		}).Bind(sys.Net)
	}

	// The frontier service: durable in mine's cabinet, admission
	// server-side. AdoptClaims stays false — the claiming workers live
	// on other hosts and survive mine's crash.
	mine := nodes[1]
	gate, err := webbot.NewGate(nil, webbot.WithMaxDepth(cfg.MaxDepth), webbot.WithPrefix(prefix))
	if err != nil {
		return nil, err
	}
	// Fleet fetchers are not the legacy recursive robot: they fetch past
	// the stable depth too, and only the aggregate's replay clamps there.
	admit := func(url string, depth int) bool {
		v := gate.Verdict(url, depth)
		return v == webbot.ReasonOK || v == webbot.ReasonUnstable
	}
	sysName := sys.SystemPrincipal.Name()
	launchFrontier := func() error {
		fr, err := frontier.New(frontier.Options{
			Store:     mine.Cabinet,
			Namespace: "fr/",
		})
		if err != nil {
			return err
		}
		mine.Programs.Register(FrontierService, services.NewAgFrontier(fr, admit))
		_, err = mine.VM.Launch(sysName, FrontierService, FrontierService, nil)
		return err
	}
	if err := launchFrontier(); err != nil {
		return nil, err
	}

	rep := &FrontierFleetReport{Agents: cfg.Agents, Serial: serialStats}
	if cfg.CrashAppend > 0 {
		var appends int64
		mine.Cabinet.SetAppendHook(func(seq uint64) {
			if atomic.AddInt64(&appends, 1) == int64(cfg.CrashAppend) {
				mine.Cabinet.SetAppendHook(nil)
				rep.Crashed = true
				sys.Net.Crash("mine")
				time.AfterFunc(restartDelay, func() {
					sys.Net.Restart("mine")
					// The core relaunches only the standard services;
					// ag_frontier is ours to bring back, recovered from
					// the reopened cabinet.
					_ = launchFrontier()
				})
			}
		})
	}

	client := services.FrontierClient{
		Service: "tacoma://mine//" + FrontierService,
		Retry:   firewall.RetryPolicy{Attempts: 8, Backoff: 200 * time.Microsecond},
		Timeout: time.Second,
	}
	newCtx := func(n *core.Node, name string) (*agent.Context, error) {
		reg, err := n.FW.Register("test", "system", name)
		if err != nil {
			return nil, err
		}
		return agent.NewContext(n.FW, reg, briefcase.New(), nil, nil), nil
	}
	coord, err := newCtx(nodes[0], "coordinator")
	if err != nil {
		return nil, err
	}
	if err := client.Add(coord, []frontier.Link{{URL: site.Root, Depth: 0}}); err != nil {
		return nil, err
	}

	var (
		mu      sync.Mutex
		fetched = map[string]int{}
		werrs   []string
	)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Agents; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			host := nodes[2+i]
			worker := "agent-" + host.Name
			ctx, err := newCtx(host, worker)
			if err != nil {
				mu.Lock()
				werrs = append(werrs, worker+": "+err.Error())
				mu.Unlock()
				return
			}
			// Fetch costs are recorded on a private virtual clock, so
			// they depend only on the URL — not on claim interleaving.
			clk := vclock.NewVirtual()
			f := fetcher(site, simnet.LAN100, clk)
			// One round trip per lease: each report brings the next.
			var (
				recs  []*frontier.PageRecord
				fails []frontier.FetchFailure
			)
			cls, state, err := client.Batch(ctx, worker, nil, nil, lease)
			for err == nil && state == services.FrontierStateClaimed {
				recs, fails = recs[:0], fails[:0]
				for _, cl := range cls {
					mu.Lock()
					fetched[cl.URL]++
					mu.Unlock()
					before := clk.Now()
					resp, ferr := f.Fetch(cl.URL)
					if ferr != nil {
						fails = append(fails, frontier.FetchFailure{URL: cl.URL, Attempt: cl.Attempts, Code: webbot.CodeFetchFailed, Reason: ferr.Error(), Retryable: true})
						continue
					}
					recs = append(recs, webbot.RecordFetch(resp, cl, clk.Now()-before))
				}
				cls, state, err = client.Batch(ctx, worker, recs, fails, lease)
			}
			if err != nil {
				mu.Lock()
				werrs = append(werrs, worker+": batch: "+err.Error())
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()

	mu.Lock()
	rep.WorkerErrors = werrs
	for url, n := range fetched {
		rep.TotalFetches += n
		if n > 1 {
			rep.DoubleFetched = append(rep.DoubleFetched, url)
		}
	}
	sort.Strings(rep.DoubleFetched)
	mu.Unlock()

	recs, err := client.Records(coord)
	if err != nil {
		return nil, err
	}
	rep.Records = len(recs)
	rep.Counts, err = client.Counts(coord)
	if err != nil {
		return nil, err
	}
	rep.Aggregate, err = webbot.StatsFromRecords(site.Root, recs,
		webbot.WithMaxDepth(cfg.MaxDepth), webbot.WithPrefix(prefix))
	if err != nil {
		return nil, fmt.Errorf("linkmine: aggregate replay: %w", err)
	}
	rep.Identical = reflect.DeepEqual(rep.Aggregate, rep.Serial)
	rep.RPCs = mine.FW.Telemetry().Registry().Counter("fw.delivered", "host", "mine").Value()
	return rep, nil
}
