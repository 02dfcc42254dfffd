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
	// FolderCrawl carries "pages|bytes|links" crawl counters.
	FolderCrawl = "CRAWL"
)

// Config parameterizes a case-study deployment.
type Config struct {
	// ClientHost and ServerHost name the two machines. Defaults:
	// "client" and "webserv".
	ClientHost, ServerHost string
	// Link is the client↔server profile (the paper: 100 Mbit LAN).
	Link simnet.Profile
	// External is the path to the outside web (second-pass checks).
	External simnet.Profile
	// Spec generates the site; zero value means the paper's workload.
	Spec websim.SiteSpec
	// MaxDepth is the robot's depth constraint; zero means 4.
	MaxDepth int
	// BinarySize is the carried Webbot image size; zero means 64 KiB.
	BinarySize int
	// KeepBinaryOnReturn disables the briefcase state-dropping before
	// the agent returns home (ablation knob; the default drops it).
	KeepBinaryOnReturn bool
	// Monitor additionally stacks the rwWebbot monitoring wrapper and
	// launches ag_monitor on the client.
	Monitor bool
	// Debug, when set, receives kernel traces and agent-completion
	// events from both nodes.
	Debug func(event string)
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.ClientHost == "" {
		c.ClientHost = "client"
	}
	if c.ServerHost == "" {
		c.ServerHost = "webserv"
	}
	if c.Link.Name == "" {
		c.Link = simnet.LAN100
	}
	if c.External.Name == "" {
		c.External = simnet.WAN10
	}
	if c.Spec.Host == "" {
		c.Spec = websim.CaseStudySpec(c.ServerHost)
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 4
	}
	if c.BinarySize == 0 {
		c.BinarySize = 64 << 10
	}
	return c
}

// Report is one scan's outcome.
type Report struct {
	// Mode is "stationary" or "mobile".
	Mode string
	// PagesVisited and BytesFetched describe the crawl.
	PagesVisited int
	BytesFetched int
	// InvalidInternal are dead links inside the server.
	InvalidInternal []webbot.LinkReport
	// InvalidExternal are dead links pointing out of the server,
	// validated in the second pass.
	InvalidExternal []webbot.LinkReport
	// ExternalChecks counts second-pass validations.
	ExternalChecks int
	// ScanElapsed is the Webbot scan portion (the paper's headline
	// metric): for the mobile agent it includes migration and the
	// result's return trip — everything the client waits for minus the
	// identical second pass.
	ScanElapsed time.Duration
	// TotalElapsed includes the second validation pass.
	TotalElapsed time.Duration
	// LinkBytes counts bytes that crossed the client↔server network
	// link (both directions).
	LinkBytes int64
	// MonitorEvents are the rwWebbot location reports observed (only
	// with Config.Monitor).
	MonitorEvents []string
}

// InvalidTotal returns the combined number of dead links found.
func (r *Report) InvalidTotal() int {
	return len(r.InvalidInternal) + len(r.InvalidExternal)
}

// Deployment is a booted two-host case-study world.
type Deployment struct {
	Sys    *core.System
	Client *core.Node
	Server *core.Node
	Site   *websim.Site
	cfg    Config
}

// NewDeployment boots the two hosts, generates the site, deploys the
// Webbot binary and the mwWebbot program on every node, and (optionally)
// the monitoring pieces.
func NewDeployment(cfg Config) (*Deployment, error) {
	cfg = cfg.withDefaults()
	site, err := websim.Generate(cfg.Spec)
	if err != nil {
		return nil, err
	}
	return newDeployment(cfg, site)
}

// newDeployment boots a deployment of cfg (defaults filled) that serves
// site. The site is read-only input: nothing a crawl does writes to it,
// so deployments may share one.
func newDeployment(cfg Config, site *websim.Site) (*Deployment, error) {
	sys, err := core.NewSystem(cfg.Link)
	if err != nil {
		return nil, err
	}
	d := &Deployment{Sys: sys, Site: site, cfg: cfg}
	opts := core.NodeOptions{NoCVM: true, Trace: cfg.Debug}
	if cfg.Debug != nil {
		opts.OnAgentDone = func(name string, err error) {
			cfg.Debug(fmt.Sprintf("agent %s done: %v", name, err))
		}
	}
	d.Client, err = sys.AddNode(cfg.ClientHost, opts)
	if err != nil {
		return nil, fmt.Errorf("linkmine: client node: %w", err)
	}
	d.Server, err = sys.AddNode(cfg.ServerHost, opts)
	if err != nil {
		return nil, fmt.Errorf("linkmine: server node: %w", err)
	}

	// The Webbot binary: pre-deployed on every node (the substitution
	// for native code mobility), with a per-node handler closure that
	// fetches through that node's view of the network — loopback on the
	// web server itself, the configured link elsewhere.
	sys.DeployBinary(BinaryName, "1.0", cfg.BinarySize, func(n *core.Node) vm.Handler {
		return d.webbotHandler(n)
	})
	// The mwWebbot mobility program, likewise per node.
	for _, n := range sys.Nodes() {
		n.Programs.Register(AgentProgram, d.mwWebbot(n))
	}
	if cfg.Monitor {
		sys.DeployWrapper(MonitorWrapperName, func() wrapper.Wrapper {
			return &wrapper.Monitor{
				MonitorURI: "tacoma://" + cfg.ClientHost + "//ag_monitor",
				Subject:    "webbot",
			}
		})
	}
	return d, nil
}

// Close shuts the deployment down.
func (d *Deployment) Close() error { return d.Sys.Close() }

// fetcherFor builds the websim client a robot on node n crawls through.
func (d *Deployment) fetcherFor(n *core.Node) *websim.Client {
	link := d.cfg.Link
	if n.Name == d.cfg.ServerHost {
		link = simnet.Loopback
	}
	return &websim.Client{
		Server:   websim.DefaultServer(d.Site),
		Universe: &websim.Universe{Origin: d.Site},
		Link:     link,
		Clock:    n.Host.Clock(),
	}
}

// checkerFor builds the second-pass external checker for node n.
func (d *Deployment) checkerFor(n *core.Node) *websim.ExternalChecker {
	return &websim.ExternalChecker{
		Universe: &websim.Universe{Origin: d.Site},
		Link:     d.cfg.External,
		Clock:    n.Host.Clock(),
	}
}

// webbotHandler is the Webbot binary's executable body on node n: read
// the crawl arguments from the briefcase, run the constrained DFS, store
// counters and logs back into the briefcase.
func (d *Deployment) webbotHandler(n *core.Node) vm.Handler {
	return func(ctx *agent.Context) error {
		bc := ctx.Briefcase()
		start, ok := bc.GetString(FolderStart)
		if !ok {
			return errors.New("webbot: no START folder")
		}
		prefix, _ := bc.GetString(FolderPrefix)
		st, err := crawlBriefcase(bc, d.fetcherFor(n), n.Host.Clock(), start, prefix)
		if err != nil {
			return err
		}
		bc.SetString(FolderCrawl, strings.Join([]string{
			strconv.Itoa(st.PagesVisited),
			strconv.Itoa(st.BytesFetched),
			strconv.Itoa(st.LinksChecked),
		}, "|"))
		encodeReports(bc.Ensure(FolderInvalid), st.Invalid)
		encodeReports(bc.Ensure(FolderRejected), st.RejectedByPrefix())
		return nil
	}
}

// newRobot builds every robot the case study runs, on the clock of the
// host it runs on (E1's figures depend on it). A variable so a test can
// read a robot's failure journal.
var newRobot = func(f websim.Fetcher, clock vclock.Clock, depth int, prefix string) *webbot.Robot {
	return webbot.New(f, webbot.WithClock(clock), webbot.WithMaxDepth(depth), webbot.WithPrefix(prefix))
}

// crawlBriefcase is the Webbot binary's crawl: it runs a robot to the
// depth the briefcase's DEPTH folder names. A missing or negative depth
// is an error, and one beyond the stable limit clamps and journals.
func crawlBriefcase(bc *briefcase.Briefcase, f websim.Fetcher, clock vclock.Clock, start, prefix string) (*webbot.Stats, error) {
	depth, ok := bc.GetInt(FolderDepth)
	if !ok {
		return nil, errors.New("webbot: no DEPTH folder")
	}
	return newRobot(f, clock, int(depth), prefix).RunCtx(context.Background(), start)
}

// mwWebbot is the mobility wrapper's program on node n (figure 5): carry
// the binary to the web server, run it there via ag_exec, second-pass the
// rejected URIs, condense, return home, deliver.
func (d *Deployment) mwWebbot(n *core.Node) vm.Handler {
	return func(ctx *agent.Context) error {
		bc := ctx.Briefcase()
		if bc.Has(FolderInvalid) && ctx.Host() != d.cfg.ServerHost {
			// Back home: deliver the result list to the collector.
			out := bc.Clone()
			out.Drop(briefcase.FolderSysWrap) // the delivery is not a move
			return ctx.Activate(CollectorName, out)
		}
		if ctx.Host() != d.cfg.ServerHost {
			// Leg 1: relocate to the web server (binary in briefcase).
			err := ctx.Go("tacoma://" + d.cfg.ServerHost + "//vm_go")
			if errors.Is(err, agent.ErrMoved) {
				return err
			}
			// Unreachable: report the failure home instead of vanishing.
			fail := briefcase.New()
			fail.SetString(briefcase.FolderSysError,
				fmt.Sprintf("mwWebbot: cannot reach %s: %v", d.cfg.ServerHost, err))
			_ = ctx.Activate(CollectorName, fail)
			return fmt.Errorf("mwWebbot: cannot reach %s: %w", d.cfg.ServerHost, err)
		}
		{
			// At the server: execute the carried Webbot via ag_exec,
			// which selects the image matching this machine.
			req := bc.Clone()
			req.SetString(services.FolderOp, "exec")
			resp, err := ctx.Meet("ag_exec", req, 60*time.Second)
			if err != nil {
				return fmt.Errorf("mwWebbot: ag_exec: %w", err)
			}
			if e, ok := resp.GetString(briefcase.FolderSysError); ok {
				return fmt.Errorf("mwWebbot: webbot run: %s", e)
			}
			for _, f := range []string{FolderCrawl, FolderInvalid, FolderRejected} {
				copyFolder(resp, bc, f)
			}
			bc.Ensure(briefcase.FolderStatus).AppendString("scan complete on " + ctx.Host())

			// Step 2: look up the URIs the Webbot rejected, from here.
			rejected, err := bc.Folder(FolderRejected)
			if err == nil && rejected.Len() > 0 {
				checker := d.checkerFor(n)
				deadExt, err := webbot.ValidateLinks(checker, decodeReports(rejected))
				if err != nil {
					return fmt.Errorf("mwWebbot: second pass: %w", err)
				}
				ext := bc.Ensure("INVALID_EXT")
				encodeReports(ext, deadExt)
				bc.SetInt("EXT_CHECKS", int64(checker.Requests))
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
			err = ctx.Go("tacoma://" + d.cfg.ClientHost + "//vm_go")
			if errors.Is(err, agent.ErrMoved) {
				return err
			}
			return fmt.Errorf("mwWebbot: cannot return home: %w", err)
		}
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
func decodeReports(f *briefcase.Folder) []webbot.LinkReport {
	var out []webbot.LinkReport
	for _, row := range f.Strings() {
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

// linkBytes sums the traffic on the client↔server link pair.
func (d *Deployment) linkBytes() int64 {
	var total int64
	for _, s := range d.Sys.Net.Stats() {
		if (s.From == d.cfg.ClientHost && s.To == d.cfg.ServerHost) ||
			(s.From == d.cfg.ServerHost && s.To == d.cfg.ClientHost) {
			total += s.Bytes
		}
	}
	return total
}

// RunStationary runs the baseline: the robot executes on the client host
// and pulls every page across the link, then second-passes the rejected
// URIs, also from the client.
func (d *Deployment) RunStationary() (*Report, error) {
	clock := d.Client.Host.Clock()
	bytesBefore := d.linkBytes()
	start := clock.Now()

	fetcher := d.fetcherFor(d.Client)
	robot := newRobot(fetcher, clock, d.cfg.MaxDepth, "http://"+d.cfg.ServerHost+"/")
	st, err := robot.RunCtx(context.Background(), d.Site.Root)
	if err != nil {
		return nil, err
	}
	scanEnd := clock.Now()

	checker := d.checkerFor(d.Client)
	deadExt, err := webbot.ValidateLinks(checker, st.RejectedByPrefix())
	if err != nil {
		return nil, err
	}
	// The stationary robot pulls pages over the real link, which simnet
	// does not see (websim charges it analytically); account it as the
	// fetched bytes plus per-request headers.
	linkBytes := int64(st.BytesFetched) + int64(fetcher.Requests)*220 + (d.linkBytes() - bytesBefore)

	return &Report{
		Mode:            "stationary",
		PagesVisited:    st.PagesVisited,
		BytesFetched:    st.BytesFetched,
		InvalidInternal: st.Invalid,
		InvalidExternal: deadExt,
		ExternalChecks:  checker.Requests,
		ScanElapsed:     scanEnd - start,
		TotalElapsed:    clock.Now() - start,
		LinkBytes:       linkBytes,
	}, nil
}

// RunMobile runs the figure-5 flow and blocks until the condensed result
// arrives back at the client.
func (d *Deployment) RunMobile() (*Report, error) {
	clock := d.Client.Host.Clock()
	bytesBefore := d.linkBytes()
	start := clock.Now()

	// The collector receives the returning agent's delivery.
	results := make(chan *briefcase.Briefcase, 1)
	d.Client.Programs.Register(CollectorName, func(ctx *agent.Context) error {
		bc, err := ctx.Await(0)
		if err != nil {
			return err
		}
		results <- bc
		return nil
	})
	if _, err := d.Client.VM.Launch(d.Sys.SystemPrincipal.Name(), CollectorName, CollectorName, nil); err != nil {
		return nil, err
	}

	var monitorEvents <-chan services.MonitorEvent
	if d.cfg.Monitor {
		handler, events := services.NewAgMonitor(64)
		d.Client.Programs.Register("ag_monitor", handler)
		if _, err := d.Client.VM.Launch(d.Sys.SystemPrincipal.Name(), "ag_monitor", "ag_monitor", nil); err != nil {
			return nil, err
		}
		monitorEvents = events
	}

	// Assemble the mwWebbot briefcase: the carried binary images (one
	// per architecture in the deployment — "an agent may submit a list
	// of binaries matching different architectures") plus crawl args.
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
	bc.SetString(FolderStart, d.Site.Root)
	bc.SetString(FolderPrefix, "http://"+d.cfg.ServerHost+"/")
	bc.SetInt(FolderDepth, int64(d.cfg.MaxDepth))
	if d.cfg.Monitor {
		bc.Ensure(briefcase.FolderSysWrap).AppendString(MonitorWrapperName)
	}

	if _, err := d.Client.VM.Launch(d.Sys.SystemPrincipal.Name(), "mwWebbot", AgentProgram, bc); err != nil {
		return nil, err
	}

	var result *briefcase.Briefcase
	select {
	case result = <-results:
	case <-time.After(60 * time.Second):
		return nil, errors.New("linkmine: mobile scan timed out")
	}
	if msg, ok := result.GetString(briefcase.FolderSysError); ok {
		return nil, errors.New("linkmine: " + msg)
	}
	end := clock.Now()

	rep := &Report{Mode: "mobile", TotalElapsed: end - start, ScanElapsed: end - start}
	if crawl, ok := result.GetString(FolderCrawl); ok {
		parts := strings.Split(crawl, "|")
		if len(parts) == 3 {
			rep.PagesVisited, _ = strconv.Atoi(parts[0])
			rep.BytesFetched, _ = strconv.Atoi(parts[1])
		}
	}
	if f, err := result.Folder(FolderInvalid); err == nil {
		rep.InvalidInternal = decodeReports(f)
	}
	if f, err := result.Folder("INVALID_EXT"); err == nil {
		rep.InvalidExternal = decodeReports(f)
	}
	if v, ok := result.GetInt("EXT_CHECKS"); ok {
		rep.ExternalChecks = int(v)
	}
	rep.LinkBytes = d.linkBytes() - bytesBefore
	// The second pass ran on the server between the legs; subtract its
	// cost from the scan-only metric (it is identical in both modes).
	rep.ScanElapsed -= externalPassCost(d.cfg.External, rep.ExternalChecks)

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

// externalPassCost is the analytic cost of n second-pass checks.
func externalPassCost(p simnet.Profile, n int) time.Duration {
	per := p.TransferTime(220) + p.Latency + p.TransferTime(256) + p.Latency
	return time.Duration(n) * per
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

// Run executes the stationary baseline and the mobile agent on fresh
// deployments of the same configuration (fresh virtual clocks make the
// two elapsed times directly comparable). The site is generated once and
// served by both: it is the workload, not deployment state.
func Run(cfg Config) (*Comparison, error) {
	cmp, _, err := run(cfg)
	return cmp, err
}

// run is Run, also returning its two deployments, closed, stationary
// first (nil past a failure).
func run(cfg Config) (*Comparison, [2]*Deployment, error) {
	var ds [2]*Deployment
	cfg = cfg.withDefaults()
	site, err := websim.Generate(cfg.Spec)
	if err != nil {
		return nil, ds, err
	}
	if ds[0], err = newDeployment(cfg, site); err != nil {
		return nil, ds, err
	}
	defer func() { _ = ds[0].Close() }()
	stationary, err := ds[0].RunStationary()
	if err != nil {
		return nil, ds, err
	}
	if ds[1], err = newDeployment(cfg, site); err != nil {
		return nil, ds, err
	}
	defer func() { _ = ds[1].Close() }()
	mobile, err := ds[1].RunMobile()
	if err != nil {
		return nil, ds, err
	}
	return &Comparison{Stationary: stationary, Mobile: mobile}, ds, nil
}
