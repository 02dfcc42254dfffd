// Package linkmine implements the paper's case study (§5): mining a web
// server for dead links with a wrapped, mobilized Webbot — and the
// stationary baseline it is compared against.
//
// The mobile path reproduces figure 5: the mwWebbot wrapper encapsulates
// the (non-mobile) Webbot binary by carrying it in its briefcase,
// relocates to the web server, executes the binary there through the
// ag_exec service, validates the URIs the constrained crawl rejected in a
// separate second step, combines both invalid lists, and transmits the
// condensed result back to the host of origin. The rwWebbot monitoring
// wrapper is stacked around it, reporting location to a monitoring tool
// and answering status queries.
//
// The stationary baseline runs the identical robot from the client host
// across the network — the traditional fixed-client data mining shape the
// paper's introduction describes.
//
// One Deployment carries every shape of the study: the paper's single
// server, and the campus of K servers that §5 sketches, scanned by one
// itinerant agent or by a fleet of single-server agents.
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
	"tax/internal/vclock"
	"tax/internal/vm"
	"tax/internal/webbot"
	"tax/internal/websim"
	"tax/internal/wrapper"
)

// Program and folder names of the case study.
const (
	// BinaryName is the Webbot binary carried and executed.
	BinaryName = "webbot"
	// AgentProgram is the mwWebbot mobility program.
	AgentProgram = "mw_webbot"
	// CollectorName is the client-side result sink agent.
	CollectorName = "ag_collect"
	// MonitorWrapperName is the deployed rwWebbot wrapper name.
	MonitorWrapperName = "monitor:webbot"

	// FolderStart carries the crawl's start URL.
	FolderStart = "START"
	// FolderPrefix carries the robot's prefix constraint.
	FolderPrefix = "PREFIX"
	// FolderDepth carries the robot's depth constraint.
	FolderDepth = "DEPTH"
	// FolderInvalid carries encoded invalid-link rows.
	FolderInvalid = "INVALID"
	// FolderRejected carries encoded rejected-link rows.
	FolderRejected = "REJECTED"
	// FolderCrawl carries the binary's "pages|bytes|links|elapsed"
	// crawl counters; figure 5 reports the first three home.
	FolderCrawl = "CRAWL"
)

// The fixed shape of every deployment.
const (
	// clientHost names the machine the scans start from.
	clientHost = "client"
	// maxDepth is the robot's depth constraint.
	maxDepth = 4
	// binarySize is the carried Webbot image's size.
	binarySize = 64 << 10
	// scanTimeout bounds the wall-clock wait for an agent to come home.
	scanTimeout = 120 * time.Second
)

// Config parameterizes a case-study deployment.
type Config struct {
	// Link is the network between the hosts (the paper: 100 Mbit LAN).
	// The second pass reaches the outside web over simnet.WAN10.
	Link simnet.Profile
	// Spec generates the site, and its Host names the web server; the
	// zero value means the paper's workload on "webserv".
	Spec websim.SiteSpec
	// Servers, when positive, lays the deployment out as a campus of
	// that many web servers (§5's uit.no remark): server i is named
	// Spec.Host followed by i+1 and serves Spec reseeded Spec.Seed+i.
	// CampusSpec is the campus's site.
	Servers int
	// KeepBinaryOnReturn disables the briefcase state-dropping before
	// the agent returns home (ablation knob; the default drops it).
	KeepBinaryOnReturn bool
	// Monitor additionally stacks the rwWebbot monitoring wrapper and
	// launches ag_monitor on the client.
	Monitor bool
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.Link.Name == "" {
		c.Link = simnet.LAN100
	}
	if c.Spec.Host == "" {
		c.Spec = websim.CaseStudySpec("webserv")
	}
	return c
}

// CampusSpec is one campus server's site for Config.Servers: pages
// pages at the paper's density (≈3.4 KB a page), a fifth as many again
// beyond the depth limit, on hosts www1 … wwwK.
func CampusSpec(pages int) websim.SiteSpec {
	spec := websim.CaseStudySpec("www")
	spec.Seed = 2000
	spec.Pages, spec.TotalBytes, spec.ExtraPages = pages, pages*3430, pages/5
	return spec
}

// generate builds the site of every server cfg (defaults filled) lays
// out. A site is read-only input: nothing a crawl does writes to it, so
// deployments may share one.
func generate(cfg Config) ([]*websim.Site, error) {
	if cfg.Servers == 0 {
		site, err := websim.Generate(cfg.Spec)
		return []*websim.Site{site}, err
	}
	sites := make([]*websim.Site, cfg.Servers)
	for i := range sites {
		spec := cfg.Spec
		spec.Host += strconv.Itoa(i + 1)
		spec.Seed += int64(i)
		var err error
		if sites[i], err = websim.Generate(spec); err != nil {
			return nil, err
		}
	}
	return sites, nil
}

// Report is one scan's outcome.
type Report struct {
	// Mode is "stationary" or "mobile".
	Mode string
	// PagesVisited and BytesFetched describe the crawl.
	PagesVisited int
	BytesFetched int
	// InvalidInternal are dead links inside the servers.
	InvalidInternal []webbot.LinkReport
	// InvalidExternal are dead links pointing out of the servers,
	// validated in the second pass.
	InvalidExternal []webbot.LinkReport
	// ExternalChecks counts second-pass validations (not reported by
	// the itinerant agent).
	ExternalChecks int
	// ScanElapsed is the Webbot scan portion (the paper's headline
	// metric): for the mobile agent it includes migration and the
	// result's return trip — everything the client waits for minus the
	// identical second pass. The itinerant agent interleaves the two,
	// and reports TotalElapsed only.
	ScanElapsed time.Duration
	// TotalElapsed includes the second validation pass.
	TotalElapsed time.Duration
	// LinkBytes counts bytes that crossed the network between hosts.
	LinkBytes int64
	// MonitorEvents are the rwWebbot location reports observed (only
	// with Config.Monitor).
	MonitorEvents []string
	// Skipped lists itinerary stops the itinerant agent found
	// unreachable.
	Skipped []string
}

// InvalidTotal returns the combined number of dead links found.
func (r *Report) InvalidTotal() int {
	return len(r.InvalidInternal) + len(r.InvalidExternal)
}

// Deployment is a booted case-study world: one client and its web
// servers.
type Deployment struct {
	Sys    *core.System
	Client *core.Node
	// Servers are the web servers in itinerary order; Servers[i]
	// serves Sites[i].
	Servers []*core.Node
	Sites   []*websim.Site
	cfg     Config
}

// NewDeployment boots the hosts, generates the sites, deploys the Webbot
// binary and both mwWebbot programs on every node, and (optionally) the
// monitoring pieces.
func NewDeployment(cfg Config) (*Deployment, error) {
	cfg = cfg.withDefaults()
	sites, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	return newDeployment(cfg, sites)
}

// newDeployment boots a deployment of cfg (defaults filled) that serves
// sites.
func newDeployment(cfg Config, sites []*websim.Site) (*Deployment, error) {
	hosts := []string{clientHost}
	for _, s := range sites {
		hosts = append(hosts, s.Host)
	}
	sys, nodes, err := boot(cfg.Link, hosts, 0)
	if err != nil {
		return nil, err
	}
	d := &Deployment{Sys: sys, Client: nodes[0], Servers: nodes[1:], Sites: sites, cfg: cfg}

	// The Webbot binary: pre-deployed on every node (the substitution
	// for native code mobility), with a per-node handler closure that
	// scans the site that node serves.
	sys.DeployBinary(BinaryName, "1.0", binarySize, d.webbotHandler)
	// The two mobility programs, likewise per node.
	for _, n := range nodes {
		n.Programs.Register(AgentProgram, d.mwWebbot(n))
		n.Programs.Register(MultiProgram, d.itinerant(n))
	}
	if cfg.Monitor {
		sys.DeployWrapper(MonitorWrapperName, func() wrapper.Wrapper {
			return &wrapper.Monitor{
				MonitorURI: "tacoma://" + clientHost + "//ag_monitor",
				Subject:    "webbot",
			}
		})
	}
	return d, nil
}

// boot starts a system on link with one node per host, none of them
// running the C VM; dedup is each firewall's duplicate-frame window.
func boot(link simnet.Profile, hosts []string, dedup int) (*core.System, []*core.Node, error) {
	sys, err := core.NewSystem(link)
	if err != nil {
		return nil, nil, err
	}
	nodes := make([]*core.Node, len(hosts))
	for i, h := range hosts {
		if nodes[i], err = sys.AddNode(h, core.NodeOptions{NoCVM: true, DedupWindow: dedup}); err != nil {
			_ = sys.Close()
			return nil, nil, fmt.Errorf("linkmine: node %s: %w", h, err)
		}
	}
	return sys, nodes, nil
}

// Close shuts the deployment down.
func (d *Deployment) Close() error { return d.Sys.Close() }

// fetcher is every robot's view of site: across link, charged to clock.
func fetcher(site *websim.Site, link simnet.Profile, clock vclock.Clock) *websim.Client {
	return &websim.Client{
		Server:   websim.DefaultServer(site),
		Universe: &websim.Universe{Origin: site},
		Link:     link,
		Clock:    clock,
	}
}

// checker is the second pass's view of the outside web from a host on
// clock, for links site rejected.
func checker(site *websim.Site, clock vclock.Clock) *websim.ExternalChecker {
	return &websim.ExternalChecker{
		Universe: &websim.Universe{Origin: site},
		Link:     simnet.WAN10,
		Clock:    clock,
	}
}

// externalPassCost is the analytic cost of n second-pass checks.
func externalPassCost(n int) time.Duration {
	p := simnet.WAN10
	per := p.TransferTime(220) + p.Latency + p.TransferTime(256) + p.Latency
	return time.Duration(n) * per
}

// prefixOf is the prefix constraint that keeps a robot on site.
func prefixOf(site *websim.Site) string { return "http://" + site.Host + "/" }

// siteOn returns the site host serves, nil for the client.
func (d *Deployment) siteOn(host string) *websim.Site {
	for _, s := range d.Sites {
		if s.Host == host {
			return s
		}
	}
	return nil
}

// webbotHandler is the Webbot binary's executable body on node n: read
// the crawl arguments from the briefcase (START and PREFIX default to
// the site n serves), run the constrained crawl over loopback, store
// "pages|bytes|links|elapsed" and the logs back into the briefcase.
func (d *Deployment) webbotHandler(n *core.Node) vm.Handler {
	return func(ctx *agent.Context) error {
		site := d.siteOn(n.Name)
		if site == nil {
			return fmt.Errorf("webbot: %s serves no site", n.Name)
		}
		bc := ctx.Briefcase()
		start, ok := bc.GetString(FolderStart)
		if !ok {
			start = site.Root
		}
		prefix, ok := bc.GetString(FolderPrefix)
		if !ok {
			prefix = prefixOf(site)
		}
		depth, ok := bc.GetInt(FolderDepth)
		if !ok {
			return errors.New("webbot: no DEPTH folder")
		}
		clock := n.Host.Clock()
		st, err := newRobot(fetcher(site, simnet.Loopback, clock), clock, int(depth), prefix).RunCtx(context.Background(), start)
		if err != nil {
			return err
		}
		bc.SetString(FolderCrawl, strings.Join([]string{
			strconv.Itoa(st.PagesVisited),
			strconv.Itoa(st.BytesFetched),
			strconv.Itoa(st.LinksChecked),
			strconv.FormatInt(int64(st.Elapsed), 10),
		}, "|"))
		encodeReports(bc.Ensure(FolderInvalid), st.Invalid)
		encodeReports(bc.Ensure(FolderRejected), st.RejectedByPrefix())
		return nil
	}
}

// newRobot builds every robot the case study runs, on the clock of the
// host it runs on (E1's figures depend on it). A variable so a test can
// read a robot's failure journal.
var newRobot = func(f websim.ForkableFetcher, clock vclock.Clock, depth int, prefix string) *webbot.Robot {
	return webbot.New(f, webbot.WithClock(clock), webbot.WithMaxDepth(depth), webbot.WithPrefix(prefix))
}

// carry starts an agent's briefcase: the Webbot binary, one image per
// architecture in the deployment ("an agent may submit a list of
// binaries matching different architectures"), and the crawl depth.
func (d *Deployment) carry() *briefcase.Briefcase {
	bc := briefcase.New()
	seen := map[string]bool{}
	for _, n := range d.Sys.Nodes() {
		if seen[n.Arch] {
			continue
		}
		seen[n.Arch] = true
		if b, ok := n.Binaries.Resolve(BinaryName, n.Arch); ok {
			vm.PackBinaries(bc, vm.Binary{
				Name: b.Name, Arch: b.Arch, Version: b.Version, Payload: b.Payload,
			})
		}
	}
	bc.SetInt(FolderDepth, maxDepth)
	return bc
}

// collect launches the client's collector, which hands every delivery
// to deliver until deliver reports it has all it waits for.
func (d *Deployment) collect(deliver func(*briefcase.Briefcase) bool) error {
	d.Client.Programs.Register(CollectorName, func(ctx *agent.Context) error {
		for {
			bc, err := ctx.Await(0)
			if err != nil {
				return err
			}
			if deliver(bc) {
				return nil
			}
		}
	})
	_, err := d.Client.VM.Launch(d.Sys.SystemPrincipal.Name(), CollectorName, CollectorName, nil)
	return err
}

// launch sends program off from the client with bc and returns the one
// briefcase it delivers home.
func (d *Deployment) launch(name, program string, bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	results := make(chan *briefcase.Briefcase, 1)
	if err := d.collect(func(r *briefcase.Briefcase) bool { results <- r; return true }); err != nil {
		return nil, err
	}
	if _, err := d.Client.VM.Launch(d.Sys.SystemPrincipal.Name(), name, program, bc); err != nil {
		return nil, err
	}
	var result *briefcase.Briefcase
	select {
	case result = <-results:
	case <-time.After(scanTimeout):
		return nil, fmt.Errorf("linkmine: %s timed out", name)
	}
	if msg, ok := result.GetString(briefcase.FolderSysError); ok {
		return nil, errors.New("linkmine: " + msg)
	}
	return result, nil
}

// linkBytes sums the traffic between hosts.
func (d *Deployment) linkBytes() int64 {
	var total int64
	for _, s := range d.Sys.Net.Stats() {
		total += s.Bytes
	}
	return total
}

// mwWebbot is the mobility wrapper's program on node n (figure 5): carry
// the binary to the (first) web server, run it there via ag_exec,
// second-pass the rejected URIs, condense, return home, deliver.
func (d *Deployment) mwWebbot(n *core.Node) vm.Handler {
	server := d.Servers[0].Name
	return func(ctx *agent.Context) error {
		bc := ctx.Briefcase()
		if bc.Has(FolderInvalid) && ctx.Host() != server {
			// Back home: deliver the result list to the collector.
			out := bc.Clone()
			out.Drop(briefcase.FolderSysWrap) // the delivery is not a move
			return ctx.Activate(CollectorName, out)
		}
		if ctx.Host() != server {
			// Leg 1: relocate to the web server (binary in briefcase).
			err := ctx.Go("tacoma://" + server + "//vm_go")
			if errors.Is(err, agent.ErrMoved) {
				return err
			}
			// Unreachable: report the failure home instead of vanishing.
			fail := briefcase.New()
			fail.SetString(briefcase.FolderSysError,
				fmt.Sprintf("mwWebbot: cannot reach %s: %v", server, err))
			_ = ctx.Activate(CollectorName, fail)
			return fmt.Errorf("mwWebbot: cannot reach %s: %w", server, err)
		}
		// At the server: execute the carried Webbot via ag_exec, which
		// selects the image matching this machine.
		req := bc.Clone()
		req.SetString(services.FolderOp, "exec")
		resp, err := ctx.Meet("ag_exec", req, 60*time.Second)
		if err != nil {
			return fmt.Errorf("mwWebbot: ag_exec: %w", err)
		}
		if e, ok := resp.GetString(briefcase.FolderSysError); ok {
			return fmt.Errorf("mwWebbot: webbot run: %s", e)
		}
		copyFolder(resp, bc, FolderInvalid)
		copyFolder(resp, bc, FolderRejected)
		// Figure 5 reports pages|bytes|links: the client times the scan
		// itself, so the binary's last field, its elapsed time, stays.
		crawl, _ := resp.GetString(FolderCrawl)
		if i := strings.LastIndexByte(crawl, '|'); i >= 0 {
			bc.SetString(FolderCrawl, crawl[:i])
		}
		bc.Ensure(briefcase.FolderStatus).AppendString("scan complete on " + ctx.Host())

		// Step 2: look up the URIs the Webbot rejected, from here.
		rejected, err := bc.Folder(FolderRejected)
		if err == nil && rejected.Len() > 0 {
			c := checker(d.Sites[0], n.Host.Clock())
			deadExt, err := webbot.ValidateLinks(c, decodeReports(rejected.Strings()))
			if err != nil {
				return fmt.Errorf("mwWebbot: second pass: %w", err)
			}
			encodeReports(bc.Ensure("INVALID_EXT"), deadExt)
			bc.SetInt("EXT_CHECKS", int64(c.Requests))
		}
		bc.Ensure(briefcase.FolderStatus).AppendString("second pass complete")

		// Condense: drop everything the client does not need — the
		// rejected log served its purpose, and dropping the carried
		// binary halves the return transfer (§3.1 state dropping).
		bc.Drop(FolderRejected)
		if !d.cfg.KeepBinaryOnReturn {
			bc.Drop(briefcase.FolderBinaries)
		}

		// Leg 2: home with the condensed results.
		err = ctx.Go("tacoma://" + clientHost + "//vm_go")
		if errors.Is(err, agent.ErrMoved) {
			return err
		}
		return fmt.Errorf("mwWebbot: cannot return home: %w", err)
	}
}

// copyFolder replaces dst's folder with src's.
func copyFolder(src, dst *briefcase.Briefcase, name string) {
	f, err := src.Folder(name)
	if err != nil {
		return
	}
	t := dst.Ensure(name)
	t.Clear()
	for i := 0; i < f.Len(); i++ {
		t.Append(f.Peek(i))
	}
}

// encodeReports renders link reports as "url|referrer|status|reason"
// elements.
func encodeReports(f *briefcase.Folder, reports []webbot.LinkReport) {
	f.Clear()
	for _, r := range reports {
		f.AppendString(strings.Join([]string{
			r.URL, r.Referrer, strconv.Itoa(r.Status), r.Reason,
		}, "|"))
	}
}

// decodeReports parses encodeReports rows.
func decodeReports(rows []string) []webbot.LinkReport {
	var out []webbot.LinkReport
	for _, row := range rows {
		parts := strings.SplitN(row, "|", 4)
		if len(parts) != 4 {
			continue
		}
		status, _ := strconv.Atoi(parts[2])
		out = append(out, webbot.LinkReport{
			URL: parts[0], Referrer: parts[1], Status: status, Reason: parts[3],
		})
	}
	return out
}

// RunStationary runs the baseline: the robot executes on the client host
// and pulls every page of every server across the link, then
// second-passes the rejected URIs, also from the client.
func (d *Deployment) RunStationary() (*Report, error) {
	clock := d.Client.Host.Clock()
	start := clock.Now()
	rep := &Report{Mode: "stationary"}
	for _, site := range d.Sites {
		scanStart := clock.Now()
		f := fetcher(site, d.cfg.Link, clock)
		st, err := newRobot(f, clock, maxDepth, prefixOf(site)).RunCtx(context.Background(), site.Root)
		if err != nil {
			return nil, err
		}
		rep.ScanElapsed += clock.Now() - scanStart
		c := checker(site, clock)
		deadExt, err := webbot.ValidateLinks(c, st.RejectedByPrefix())
		if err != nil {
			return nil, err
		}
		rep.PagesVisited += st.PagesVisited
		rep.BytesFetched += st.BytesFetched
		rep.InvalidInternal = append(rep.InvalidInternal, st.Invalid...)
		rep.InvalidExternal = append(rep.InvalidExternal, deadExt...)
		rep.ExternalChecks += c.Requests
		// The robot pulls pages over the real link, which simnet does
		// not see (websim charges it analytically); account it as the
		// fetched bytes plus per-request headers.
		rep.LinkBytes += int64(st.BytesFetched) + int64(f.Requests)*220
	}
	rep.TotalElapsed = clock.Now() - start
	return rep, nil
}

// RunMobile runs the figure-5 flow against the first server and blocks
// until the condensed result arrives back at the client.
func (d *Deployment) RunMobile() (*Report, error) {
	clock := d.Client.Host.Clock()
	bytesBefore := d.linkBytes()
	start := clock.Now()

	var monitorEvents <-chan services.MonitorEvent
	if d.cfg.Monitor {
		handler, events := services.NewAgMonitor(64)
		d.Client.Programs.Register("ag_monitor", handler)
		if _, err := d.Client.VM.Launch(d.Sys.SystemPrincipal.Name(), "ag_monitor", "ag_monitor", nil); err != nil {
			return nil, err
		}
		monitorEvents = events
	}

	bc := d.carry()
	bc.SetString(FolderStart, d.Sites[0].Root)
	bc.SetString(FolderPrefix, prefixOf(d.Sites[0]))
	if d.cfg.Monitor {
		bc.Ensure(briefcase.FolderSysWrap).AppendString(MonitorWrapperName)
	}
	result, err := d.launch("mwWebbot", AgentProgram, bc)
	if err != nil {
		return nil, err
	}
	end := clock.Now()

	tr := parseTaskResult("", result)
	rep := &Report{Mode: "mobile", PagesVisited: tr.Pages, BytesFetched: tr.Bytes, TotalElapsed: end - start}
	if f, err := result.Folder(FolderInvalid); err == nil {
		rep.InvalidInternal = decodeReports(f.Strings())
	}
	if f, err := result.Folder("INVALID_EXT"); err == nil {
		rep.InvalidExternal = decodeReports(f.Strings())
	}
	if v, ok := result.GetInt("EXT_CHECKS"); ok {
		rep.ExternalChecks = int(v)
	}
	rep.LinkBytes = d.linkBytes() - bytesBefore
	// The second pass ran on the server between the legs; subtract its
	// cost from the scan-only metric (it is identical in both modes).
	rep.ScanElapsed = rep.TotalElapsed - externalPassCost(rep.ExternalChecks)

	if monitorEvents != nil {
		deadline := time.After(200 * time.Millisecond)
	drain:
		for {
			select {
			case ev := <-monitorEvents:
				rep.MonitorEvents = append(rep.MonitorEvents, ev.Host+": "+ev.Status)
			case <-deadline:
				break drain
			}
		}
	}
	return rep, nil
}

// Comparison is the paper's experiment: both modes on one workload.
type Comparison struct {
	Stationary *Report
	Mobile     *Report
}

// SpeedupPercent returns how much faster the mobile scan is, in percent
// of the stationary scan time (the paper reports 16%).
func (c *Comparison) SpeedupPercent() float64 {
	s := c.Stationary.ScanElapsed.Seconds()
	m := c.Mobile.ScanElapsed.Seconds()
	if s == 0 {
		return 0
	}
	return (s - m) / s * 100
}

// Run executes the stationary baseline and the figure-5 mobile agent on
// fresh deployments of the same configuration (fresh virtual clocks make
// the two elapsed times directly comparable). The sites are generated
// once and served by both: they are the workload, not deployment state.
func Run(cfg Config) (*Comparison, error) {
	cmp, _, err := run(cfg)
	return cmp, err
}

// run is Run, also returning its two deployments, closed, stationary
// first (nil past a failure).
func run(cfg Config) (*Comparison, [2]*Deployment, error) {
	var ds [2]*Deployment
	cfg = cfg.withDefaults()
	sites, err := generate(cfg)
	if err != nil {
		return nil, ds, err
	}
	if ds[0], err = newDeployment(cfg, sites); err != nil {
		return nil, ds, err
	}
	defer func() { _ = ds[0].Close() }()
	stationary, err := ds[0].RunStationary()
	if err != nil {
		return nil, ds, err
	}
	if ds[1], err = newDeployment(cfg, sites); err != nil {
		return nil, ds, err
	}
	defer func() { _ = ds[1].Close() }()
	mobile, err := ds[1].RunMobile()
	if err != nil {
		return nil, ds, err
	}
	return &Comparison{Stationary: stationary, Mobile: mobile}, ds, nil
}
