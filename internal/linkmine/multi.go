package linkmine

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/core"
	"tax/internal/services"
	"tax/internal/simnet"
	"tax/internal/vm"
	"tax/internal/webbot"
	"tax/internal/websim"
)

// MultiProgram is the itinerant multi-server mwWebbot.
const MultiProgram = "mw_webbot_multi"

// MultiConfig parameterizes the §5 extension the paper sketches: "if we
// were to check all the servers at the university campus (the whole
// uit.no domain) ... Webbot needs to be run several times, and
// preferably relocated to a new host between each execution."
type MultiConfig struct {
	// ClientHost names the launching machine; default "client".
	ClientHost string
	// Servers are the web-server hosts to scan, in itinerary order.
	Servers []string
	// Link is the campus network between all hosts.
	Link simnet.Profile
	// External is the path to the outside web.
	External simnet.Profile
	// PagesPerServer sizes each server's site; zero means 200.
	PagesPerServer int
	// BytesPerServer sizes each server's site; zero scales the paper's
	// density (≈3.4 KB/page).
	BytesPerServer int
	// MaxDepth is the robot's depth constraint; zero means 4.
	MaxDepth int
	// BinarySize is the carried Webbot image size; zero means 64 KiB.
	BinarySize int
}

func (c MultiConfig) withDefaults() MultiConfig {
	if c.ClientHost == "" {
		c.ClientHost = "client"
	}
	if len(c.Servers) == 0 {
		c.Servers = []string{"www1", "www2", "www3"}
	}
	if c.Link.Name == "" {
		c.Link = simnet.LAN100
	}
	if c.External.Name == "" {
		c.External = simnet.WAN10
	}
	if c.PagesPerServer == 0 {
		c.PagesPerServer = 200
	}
	if c.BytesPerServer == 0 {
		c.BytesPerServer = c.PagesPerServer * 3430
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 4
	}
	if c.BinarySize == 0 {
		c.BinarySize = 64 << 10
	}
	return c
}

// MultiDeployment is a campus: one client plus several web servers.
type MultiDeployment struct {
	Sys    *core.System
	Client *core.Node
	Sites  map[string]*websim.Site
	cfg    MultiConfig
}

// NewMultiDeployment boots the campus and deploys the Webbot binary and
// the itinerant agent program on every node.
func NewMultiDeployment(cfg MultiConfig) (*MultiDeployment, error) {
	cfg = cfg.withDefaults()
	sys, err := core.NewSystem(cfg.Link)
	if err != nil {
		return nil, err
	}
	d := &MultiDeployment{Sys: sys, Sites: make(map[string]*websim.Site), cfg: cfg}
	d.Client, err = sys.AddNode(cfg.ClientHost, core.NodeOptions{NoCVM: true})
	if err != nil {
		return nil, err
	}
	for i, server := range cfg.Servers {
		if _, err := sys.AddNode(server, core.NodeOptions{NoCVM: true}); err != nil {
			return nil, err
		}
		spec := websim.CaseStudySpec(server)
		spec.Seed = int64(2000 + i)
		spec.Pages = cfg.PagesPerServer
		spec.TotalBytes = cfg.BytesPerServer
		spec.ExtraPages = cfg.PagesPerServer / 5
		site, err := websim.Generate(spec)
		if err != nil {
			return nil, err
		}
		d.Sites[server] = site
	}

	sys.DeployBinary(BinaryName, "1.0", cfg.BinarySize, func(n *core.Node) vm.Handler {
		return d.webbotHandler(n)
	})
	for _, n := range sys.Nodes() {
		n.Programs.Register(MultiProgram, d.itinerant(n))
	}
	return d, nil
}

// Close shuts the campus down.
func (d *MultiDeployment) Close() error { return d.Sys.Close() }

// fetcherFor serves the site of the node the robot runs on (loopback) —
// the itinerant agent only ever scans the host it sits on.
func (d *MultiDeployment) fetcherFor(n *core.Node) (*websim.Client, error) {
	site, ok := d.Sites[n.Name]
	if !ok {
		return nil, fmt.Errorf("linkmine: no site on %s", n.Name)
	}
	return &websim.Client{
		Server:   websim.DefaultServer(site),
		Universe: &websim.Universe{Origin: site},
		Link:     simnet.Loopback,
		Clock:    n.Host.Clock(),
	}, nil
}

// remoteFetcher is the stationary baseline's view of a server from the
// client across the campus link.
func (d *MultiDeployment) remoteFetcher(server string) *websim.Client {
	return &websim.Client{
		Server:   websim.DefaultServer(d.Sites[server]),
		Universe: &websim.Universe{Origin: d.Sites[server]},
		Link:     d.cfg.Link,
		Clock:    d.Client.Host.Clock(),
	}
}

// webbotHandler is the deployed binary on campus nodes: scan the local
// site with the briefcase's constraints.
func (d *MultiDeployment) webbotHandler(n *core.Node) vm.Handler {
	return func(ctx *agent.Context) error {
		bc := ctx.Briefcase()
		fetcher, err := d.fetcherFor(n)
		if err != nil {
			return err
		}
		st, err := crawlBriefcase(bc, fetcher, n.Host.Clock(), d.Sites[n.Name].Root, "http://"+n.Name+"/")
		if err != nil {
			return err
		}
		bc.SetString(FolderCrawl, fmt.Sprintf("%d|%d|%d|%d",
			st.PagesVisited, st.BytesFetched, st.LinksChecked, int64(st.Elapsed)))
		encodeReports(bc.Ensure(FolderInvalid), st.Invalid)
		encodeReports(bc.Ensure(FolderRejected), st.RejectedByPrefix())
		return nil
	}
}

// itinerant is the multi-server mwWebbot: at each server on the HOSTS
// itinerary it executes the carried binary, validates rejected links,
// accumulates condensed results in RESULTS, and finally delivers at
// home.
func (d *MultiDeployment) itinerant(n *core.Node) vm.Handler {
	return func(ctx *agent.Context) error {
		bc := ctx.Briefcase()
		if ctx.Host() == d.cfg.ClientHost && bc.Has(briefcase.FolderResults) {
			// Home with results: deliver.
			return ctx.Activate(CollectorName, bc.Clone())
		}
		if _, isServer := d.Sites[ctx.Host()]; isServer {
			// Scan this server via ag_exec.
			req := bc.Clone()
			req.SetString(services.FolderOp, "exec")
			resp, err := ctx.Meet("ag_exec", req, 60*time.Second)
			if err != nil {
				return fmt.Errorf("mwWebbotMulti: ag_exec on %s: %w", ctx.Host(), err)
			}
			if e, ok := resp.GetString(briefcase.FolderSysError); ok {
				return errors.New("mwWebbotMulti: " + e)
			}
			// Second pass from here, then condense into RESULTS.
			results := bc.Ensure(briefcase.FolderResults)
			if f, err := resp.Folder(FolderInvalid); err == nil {
				for _, row := range f.Strings() {
					results.AppendString(ctx.Host() + "|" + row)
				}
			}
			if f, err := resp.Folder(FolderRejected); err == nil && f.Len() > 0 {
				checker := &websim.ExternalChecker{
					Universe: &websim.Universe{Origin: d.Sites[ctx.Host()]},
					Link:     d.cfg.External,
					Clock:    n.Host.Clock(),
				}
				deadExt, err := webbot.ValidateLinks(checker, decodeReports(f))
				if err != nil {
					return err
				}
				for _, r := range deadExt {
					results.AppendString(ctx.Host() + "|" + r.URL + "|" + r.Referrer + "|" +
						strconv.Itoa(r.Status) + "|invalid-ext")
				}
			}
			if crawl, ok := resp.GetString(FolderCrawl); ok {
				bc.Ensure("CRAWLS").AppendString(ctx.Host() + "|" + crawl)
			}
		}
		// Move on, skipping unreachable stops (failure tolerance along
		// the itinerary; the last stop is always the client).
		hosts, err := bc.Folder(briefcase.FolderHosts)
		if err != nil {
			return err
		}
		for {
			next, ok := hosts.Pop()
			if !ok {
				return errors.New("mwWebbotMulti: itinerary exhausted remotely")
			}
			if err := ctx.Go(next.String()); errors.Is(err, agent.ErrMoved) {
				return err
			}
			bc.Ensure("SKIPPED").AppendString(next.String())
		}
	}
}

// MultiReport is one campus scan's outcome.
type MultiReport struct {
	Mode         string
	Servers      int
	PagesVisited int
	BytesFetched int
	DeadLinks    int
	Elapsed      time.Duration
	LinkBytes    int64
	Skipped      []string
}

// RunStationaryMulti scans every server from the client across the
// campus link, sequentially — the fixed-client shape.
func (d *MultiDeployment) RunStationaryMulti() (*MultiReport, error) {
	clock := d.Client.Host.Clock()
	start := clock.Now()
	rep := &MultiReport{Mode: "stationary", Servers: len(d.cfg.Servers)}
	var linkBytes int64
	for _, server := range d.cfg.Servers {
		fetcher := d.remoteFetcher(server)
		robot := newRobot(fetcher, clock, d.cfg.MaxDepth, "http://"+server+"/")
		st, err := robot.RunCtx(context.Background(), d.Sites[server].Root)
		if err != nil {
			return nil, err
		}
		checker := &websim.ExternalChecker{
			Universe: &websim.Universe{Origin: d.Sites[server]},
			Link:     d.cfg.External,
			Clock:    clock,
		}
		deadExt, err := webbot.ValidateLinks(checker, st.RejectedByPrefix())
		if err != nil {
			return nil, err
		}
		rep.PagesVisited += st.PagesVisited
		rep.BytesFetched += st.BytesFetched
		rep.DeadLinks += len(st.Invalid) + len(deadExt)
		linkBytes += int64(st.BytesFetched) + int64(fetcher.Requests)*220
	}
	rep.Elapsed = clock.Now() - start
	rep.LinkBytes = linkBytes
	return rep, nil
}

// RunMobileMulti launches the itinerant agent around the campus and
// waits for it to deliver at home.
func (d *MultiDeployment) RunMobileMulti() (*MultiReport, error) {
	clock := d.Client.Host.Clock()
	bytesBefore := d.allLinkBytes()
	start := clock.Now()

	results := make(chan *briefcase.Briefcase, 1)
	d.Client.Programs.Register(CollectorName, func(ctx *agent.Context) error {
		bc, err := ctx.Await(0)
		if err != nil {
			return err
		}
		results <- bc
		return nil
	})
	sysName := d.Sys.SystemPrincipal.Name()
	if _, err := d.Client.VM.Launch(sysName, CollectorName, CollectorName, nil); err != nil {
		return nil, err
	}

	bc := briefcase.New()
	if b, ok := d.Client.Binaries.Resolve(BinaryName, d.Client.Arch); ok {
		vm.PackBinaries(bc, vm.Binary{Name: b.Name, Arch: b.Arch, Version: b.Version, Payload: b.Payload})
	}
	bc.SetInt(FolderDepth, int64(d.cfg.MaxDepth))
	hosts := bc.Ensure(briefcase.FolderHosts)
	for _, s := range d.cfg.Servers {
		hosts.AppendString("tacoma://" + s + "//vm_go")
	}
	hosts.AppendString("tacoma://" + d.cfg.ClientHost + "//vm_go")

	if _, err := d.Client.VM.Launch(sysName, "mwWebbotMulti", MultiProgram, bc); err != nil {
		return nil, err
	}
	var result *briefcase.Briefcase
	select {
	case result = <-results:
	case <-time.After(120 * time.Second):
		return nil, errors.New("linkmine: campus scan timed out")
	}
	if msg, ok := result.GetString(briefcase.FolderSysError); ok {
		return nil, errors.New("linkmine: " + msg)
	}

	rep := &MultiReport{
		Mode:    "mobile",
		Servers: len(d.cfg.Servers),
		Elapsed: clock.Now() - start,
	}
	if f, err := result.Folder("CRAWLS"); err == nil {
		for _, row := range f.Strings() {
			// host|pages|bytes|links|elapsed
			parts := strings.Split(row, "|")
			if len(parts) < 4 {
				continue
			}
			pages, _ := strconv.Atoi(parts[1])
			bytes, _ := strconv.Atoi(parts[2])
			rep.PagesVisited += pages
			rep.BytesFetched += bytes
		}
	}
	if f, err := result.Folder(briefcase.FolderResults); err == nil {
		rep.DeadLinks = f.Len()
	}
	if f, err := result.Folder("SKIPPED"); err == nil {
		rep.Skipped = f.Strings()
	}
	rep.LinkBytes = d.allLinkBytes() - bytesBefore
	return rep, nil
}

// allLinkBytes sums traffic on every campus link.
func (d *MultiDeployment) allLinkBytes() int64 {
	var total int64
	for _, s := range d.Sys.Net.Stats() {
		total += s.Bytes
	}
	return total
}
