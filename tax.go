// Package tax is the public API of the TAX reproduction: a
// language-independent mobile-agent platform after "Adding Mobility to
// Non-mobile Web Robots" (Sudmann & Johansen, ICDCS 2000), together with
// the simulated substrates its evaluation runs on.
//
// The API surface mirrors the paper's architecture:
//
//   - A System is a simulated distributed deployment of Nodes; each Node
//     is one machine of figure 1: a firewall fronting virtual machines
//     and service agents.
//   - Agents are pre-deployed Handler programs whose transportable state
//     is a Briefcase — an associative array of folders of byte-string
//     elements.
//   - The agent library offers the paper's primitives on a Context:
//     Activate (send), Await (blocking receive), Meet (RPC), Go (move,
//     terminating the local instance on success) and Spawn (fork).
//   - Wrappers intercept an agent's sends and receives to add monitoring,
//     location transparency or group communication without modifying the
//     agent.
//
// A minimal itinerant agent (figure 4 of the paper):
//
//	sys, _ := tax.NewSystem(tax.LAN100)
//	defer sys.Close()
//	for _, h := range []string{"h1", "h2", "h3"} {
//		sys.AddNode(h, tax.NodeOptions{})
//	}
//	sys.DeployProgram("hello", func(ctx *tax.Context) error {
//		fmt.Println("hello from", ctx.Host())
//		hosts, err := ctx.Briefcase().Folder(tax.FolderHosts)
//		if err != nil {
//			return err
//		}
//		for {
//			next, ok := hosts.Pop()
//			if !ok {
//				return nil
//			}
//			if err := ctx.Go(next.String()); errors.Is(err, tax.ErrMoved) {
//				return err
//			}
//		}
//	})
package tax

import (
	"context"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/core"
	"tax/internal/directory"
	"tax/internal/firewall"
	"tax/internal/frontier"
	"tax/internal/group"
	"tax/internal/identity"
	"tax/internal/policy"
	"tax/internal/rearguard"
	"tax/internal/services"
	"tax/internal/simnet"
	"tax/internal/uri"
	"tax/internal/vm"
	"tax/internal/webbot"
	"tax/internal/websim"
	"tax/internal/wrapper"
)

// Core deployment types.
type (
	// System is a simulated TAX deployment: nodes plus the network.
	System = core.System
	// Node is one TAX host: firewall, VMs, services, stores.
	Node = core.Node
	// NodeOptions tunes one host at AddNode time.
	//
	// Deprecated: prefer System.AddNodeWith with Option values; the
	// struct remains supported and the two styles are equivalent.
	NodeOptions = core.NodeOptions
	// Option tunes one host at AddNodeWith time (see WithBatching,
	// WithSecureChannels, ...).
	Option = core.Option
	// BatchConfig tunes coalesced outbound mediation for WithBatching.
	BatchConfig = firewall.BatchConfig
	// RetryPolicy governs firewall forward retries.
	RetryPolicy = firewall.RetryPolicy
	// Quota is a per-principal token-bucket limit for WithQuotas (and
	// the quota lines of a WithPolicy ruleset).
	Quota = policy.Quota
	// PolicyRuleset is a parsed policy (see ParsePolicy).
	PolicyRuleset = policy.Ruleset
	// DirectoryConfig declares the leased, sharded directory plane a
	// System enables before adding its member nodes (EnableDirectory).
	DirectoryConfig = core.DirectoryConfig
	// DirectoryRing is the plane's consistent-hash ownership function.
	DirectoryRing = directory.Ring
	// DirectoryClient resolves and registers names against the plane,
	// failing over from a crashed shard owner to its replicas.
	DirectoryClient = directory.Client
	// NameBinding is one versioned, leased name→location record.
	NameBinding = directory.Binding
)

// Directory-plane errors, typed across the wire: a remote shard's
// verdict arrives as a RemoteError that errors.Is-matches these.
var (
	// ErrNameUnbound: the name was never registered or was dropped.
	ErrNameUnbound = directory.ErrUnbound
	// ErrNameExpired: the binding's lease ran out (its agent went
	// silent — crashed host, lost renewal).
	ErrNameExpired = directory.ErrExpired
	// ErrNameNoQuorum: a write could not reach every replica; it is
	// unacknowledged and may or may not survive.
	ErrNameNoQuorum = directory.ErrNoQuorum
)

// Functional node options, re-exported from core. Each sets one
// NodeOptions field; see the core package for per-option documentation.
// WithSnapshotEvery(n) compacts a node's cabinet every n committed
// transactions and never when n is negative; n = 0, the default,
// compacts once the WAL since the last snapshot outweighs the table.
var (
	WithArch           = core.WithArch
	WithBypass         = core.WithBypass
	WithRequireAuth    = core.WithRequireAuth
	WithQueueTimeout   = core.WithQueueTimeout
	WithForwardRetry   = core.WithForwardRetry
	WithDedupWindow    = core.WithDedupWindow
	WithTrace          = core.WithTrace
	WithoutServices    = core.WithoutServices
	WithoutCVM         = core.WithoutCVM
	WithOnAgentDone    = core.WithOnAgentDone
	WithSecureChannels = core.WithSecureChannels
	WithTelemetry      = core.WithTelemetry
	WithFsyncCost      = core.WithFsyncCost
	WithSnapshotEvery  = core.WithSnapshotEvery
	WithBatching       = core.WithBatching
	WithRelay          = core.WithRelay
	WithGroupCommit    = core.WithGroupCommit
	WithPolicy         = core.WithPolicy
	WithQuotas         = core.WithQuotas
)

// ParsePolicy validates and compiles policy ruleset text without
// installing it anywhere — the same parser WithPolicy and hot reload
// run, so configuration pipelines can reject bad rulesets early.
func ParsePolicy(text string) (*PolicyRuleset, error) { return policy.Parse(text) }

// StampTrace marks a briefcase as the root of a fresh telemetry trace
// and returns the trace id: launch an agent with a stamped briefcase and
// its whole itinerary — hops, mediations, policy verdicts — collects as
// one explain timeline (taxctl explain).
func StampTrace(bc *Briefcase, host string) string { return agent.StampTrace(bc, host) }

// Agent-programming types.
type (
	// Briefcase is the transportable agent state (§3.1).
	Briefcase = briefcase.Briefcase
	// Folder is an ordered list of elements within a briefcase.
	Folder = briefcase.Folder
	// Element is an uninterpreted byte string, TAX's basic data type.
	Element = briefcase.Element
	// Context is an executing agent's view of TAX.
	Context = agent.Context
	// Handler is an agent program body.
	Handler = vm.Handler
	// URI is a parsed agent address (figure 2).
	URI = uri.URI
	// Wrapper intercepts an agent's sends and receives (§4).
	Wrapper = wrapper.Wrapper
	// WrapperStack is an ordered set of wrappers around one agent.
	WrapperStack = wrapper.Stack
	// Principal is a named signing identity.
	Principal = identity.Principal
	// Binary is a deployable (simulated) native binary image.
	Binary = vm.Binary
	// LinkProfile describes a network link class.
	LinkProfile = simnet.Profile
)

// NewSystem creates an empty deployment on the given default link.
func NewSystem(profile LinkProfile) (*System, error) { return core.NewSystem(profile) }

// NewBriefcase returns an empty briefcase.
func NewBriefcase() *Briefcase { return briefcase.New() }

// ParseURI parses an agent URI in the paper's figure-2 notation.
func ParseURI(s string) (URI, error) { return uri.Parse(s) }

// NewWrapperStack builds a wrapper stack, outermost first.
func NewWrapperStack(outermostFirst ...Wrapper) *WrapperStack {
	return wrapper.NewStack(outermostFirst...)
}

// RunItinerary drives the figure-4 visit/move loop for a handler.
func RunItinerary(ctx *Context, visit func(*Context) error) error {
	return agent.RunItinerary(ctx, visit)
}

// RunItineraryContext is RunItinerary with cancellation: a cancelled
// context stops the tour on the current host; the briefcase keeps its
// remaining HOSTS so a later call can resume.
func RunItineraryContext(ctx context.Context, ac *Context, visit func(*Context) error) error {
	return agent.RunItineraryContext(ctx, ac, visit)
}

// SendStream ships a large payload as a chunked briefcase stream.
func SendStream(ctx *Context, target, streamID string, data []byte, chunkSize int) error {
	return agent.SendStream(ctx, target, streamID, data, chunkSize)
}

// SendStreamContext is SendStream with cancellation, checked between
// chunks so a large transfer stops promptly.
func SendStreamContext(ctx context.Context, ac *Context, target, streamID string, data []byte, chunkSize int) error {
	return agent.SendStreamContext(ctx, ac, target, streamID, data, chunkSize)
}

// NewWrapperSpecs returns a registry generating wrapper stacks from
// declarative spec strings (the paper's future-work framework).
func NewWrapperSpecs() *wrapper.SpecRegistry { return wrapper.NewSpecRegistry() }

// Link profiles for NewSystem (calibrated in EXPERIMENTS.md).
var (
	// Loopback models in-host communication.
	Loopback = simnet.Loopback
	// LAN100 is the paper's 100 Mbit department LAN.
	LAN100 = simnet.LAN100
	// WAN10 is a 10 Mbit wide-area path.
	WAN10 = simnet.WAN10
	// WAN2 is a slow 2 Mbit wide-area path.
	WAN2 = simnet.WAN2
)

// Well-known briefcase folders.
const (
	// FolderHosts is the itinerary folder of figure 4.
	FolderHosts = briefcase.FolderHosts
	// FolderCode carries the agent's program name or source.
	FolderCode = briefcase.FolderCode
	// FolderArgs carries agent arguments.
	FolderArgs = briefcase.FolderArgs
	// FolderResults accumulates results along an itinerary.
	FolderResults = briefcase.FolderResults
	// FolderStatus is read by monitoring wrappers answering queries.
	FolderStatus = briefcase.FolderStatus
)

// ErrMoved is returned by Context.Go after a successful move; the agent
// returns it from its handler to terminate the local instance.
var ErrMoved = agent.ErrMoved

// The error taxonomy. Every failure the platform reports wraps one of
// these sentinels, so callers classify with errors.Is instead of
// matching message strings — including failures that crossed the wire
// as a KindError briefcase (see RemoteError).
var (
	// ErrNoMover: the hosting VM does not support relocation.
	ErrNoMover = agent.ErrNoMover
	// ErrStreamCorrupt: a chunked stream arrived damaged or incomplete.
	ErrStreamCorrupt = agent.ErrStreamCorrupt

	// ErrNoFolder / ErrNoElement: briefcase lookups that found nothing.
	ErrNoFolder  = briefcase.ErrNoFolder
	ErrNoElement = briefcase.ErrNoElement
	// ErrCorrupt: a briefcase frame failed to decode.
	ErrCorrupt = briefcase.ErrCorrupt

	// ErrDenied: the reference monitor rejected the operation.
	ErrDenied = firewall.ErrDenied
	// ErrNoAgent: the target agent is not registered at the firewall.
	ErrNoAgent = firewall.ErrNoAgent
	// ErrNoTarget: the briefcase names no destination.
	ErrNoTarget = firewall.ErrNoTarget
	// ErrSenderGone: the sending registration disappeared mid-send.
	ErrSenderGone = firewall.ErrSenderGone
	// ErrKilled: the agent was terminated by a management operation.
	ErrKilled = firewall.ErrKilled
	// ErrRecvTimeout: a blocking receive ran out of time.
	ErrRecvTimeout = firewall.ErrRecvTimeout
	// ErrMailboxFull: the receiver's queue is at capacity.
	ErrMailboxFull = firewall.ErrMailboxFull
	// ErrExpired: a parked message outlived its grace period.
	ErrExpired = firewall.ErrExpired
	// ErrUnsigned: an agent core arrived without a required signature.
	ErrUnsigned = firewall.ErrUnsigned
	// ErrChannelAuth: inter-firewall channel authentication failed.
	ErrChannelAuth = firewall.ErrChannelAuth
	// ErrPolicyDenied: a policy rule (or the default-deny fall-through)
	// refused the mediation. Crosses the wire as code fw_policy_denied.
	ErrPolicyDenied = firewall.ErrPolicyDenied
	// ErrQuotaExceeded: the sending principal's rate or byte quota was
	// exhausted. Crosses the wire as code fw_quota.
	ErrQuotaExceeded = firewall.ErrQuotaExceeded

	// ErrDropped / ErrHostDown / ErrPartitioned: the simulated network
	// refused or lost the transfer.
	ErrDropped     = simnet.ErrDropped
	ErrHostDown    = simnet.ErrHostDown
	ErrPartitioned = simnet.ErrPartitioned

	// ErrNoSuchFile / ErrUnknownOp / ErrBadRequest: service-agent RPC
	// failures (ag_fs, ag_cabinet, ag_exec, ag_dir, ...).
	ErrNoSuchFile = services.ErrNoSuchFile
	ErrUnknownOp  = services.ErrUnknownOp
	ErrBadRequest = services.ErrBadRequest

	// ErrUnrecovered / ErrRecoveryFailed: the rear guard gave up on a
	// lost agent.
	ErrUnrecovered    = rearguard.ErrUnrecovered
	ErrRecoveryFailed = rearguard.ErrRecoveryFailed
)

// RemoteError is an error that crossed the wire as a KindError
// briefcase. errors.Is matches it against the sentinel its _ERRCODE
// names, so errors.Is(err, tax.ErrNoSuchFile) is true even though the
// failure happened on another host.
type RemoteError = firewall.RemoteError

// RegisterErrorCode binds a stable wire code to a sentinel error so
// application-defined failures survive the wire typed (see
// firewall.RegisterErrorCode).
func RegisterErrorCode(code string, sentinel error) { firewall.RegisterErrorCode(code, sentinel) }

// Trust levels for System.NewPrincipal.
const (
	// Untrusted principals run only in safety-enforcing VMs.
	Untrusted = identity.Untrusted
	// Trusted principals may execute native binaries via vm_bin.
	Trusted = identity.Trusted
	// SystemLevel principals hold site-management rights.
	SystemLevel = identity.System
)

// Group-communication orderings for the group wrapper.
const (
	// FIFO delivers each sender's messages in send order.
	FIFO = group.FIFO
	// Causal delivers messages respecting potential causality.
	Causal = group.Causal
	// Total delivers in one global order on every member.
	Total = group.Total
)

// Re-exported building blocks for applications that go beyond the
// façade: the web substrate and the robot of the case study.
type (
	// Site is a generated synthetic web site.
	Site = websim.Site
	// SiteSpec parameterizes site generation.
	SiteSpec = websim.SiteSpec
	// Robot is the stationary Webbot-style crawler, rebuilt as a staged
	// pipeline over a durable URL frontier. Build with NewRobot.
	Robot = webbot.Robot
	// RobotStats is a crawl's gathered output.
	RobotStats = webbot.Stats
	// RobotOption tunes a robot at NewRobot time.
	RobotOption = webbot.Option
	// RobotsPolicy selects how a robot treats a site's robots.txt.
	RobotsPolicy = webbot.RobotsPolicy
	// Fetcher is anything a robot can crawl through — a local or remote
	// websim client, which is exactly the paper's measured difference.
	Fetcher = websim.Fetcher
	// PageRecord is one completed fetch in a robot's frontier: the
	// durable unit crash-resume, re-crawl and fleet aggregation share.
	PageRecord = frontier.PageRecord
)

// NewRobot builds a staged-crawler robot (PR 10 API): a prioritized,
// optionally durable URL frontier feeding K politeness-limited fetcher
// workers, with Stats byte-identical to the serial crawl.
func NewRobot(fetcher Fetcher, opts ...RobotOption) *Robot { return webbot.New(fetcher, opts...) }

// Robot options, re-exported from webbot. Each returns a RobotOption
// for NewRobot; see the webbot package for per-option documentation.
var (
	RobotMaxDepth    = webbot.WithMaxDepth
	RobotPrefix      = webbot.WithPrefix
	RobotWorkers     = webbot.WithWorkers
	RobotPoliteness  = webbot.WithPoliteness
	RobotRobots      = webbot.WithRobotsPolicy
	RobotUserAgent   = webbot.WithUserAgent
	RobotStableDepth = webbot.WithStableDepth
	RobotFrontier    = webbot.WithFrontier
	RobotRecrawl     = webbot.WithRecrawl
	RobotRetries     = webbot.WithRetries
	RobotClock       = webbot.WithClock
)

// Robots-exclusion policies for RobotRobots.
const (
	// RobotsIgnore skips the robots.txt fetch (the legacy behavior).
	RobotsIgnore = webbot.RobotsIgnore
	// RobotsHonor fetches /robots.txt first and prunes excluded URLs.
	RobotsHonor = webbot.RobotsHonor
)

// Crawler errors, typed across the wire like the platform taxonomy: a
// fleet worker's Fail crosses as a RemoteError matching these.
var (
	// ErrRobotsDenied: the site's robots.txt forbids the URL for this
	// robot's user-agent. Wire code wb_robots_denied.
	ErrRobotsDenied = webbot.ErrRobotsDenied
	// ErrCrawlUnstable: a subtree beyond the stable depth was clamped
	// and journaled. Wire code wb_depth_unstable.
	ErrCrawlUnstable = webbot.ErrUnstable
	// ErrFetchFailed: a URL's fetch failed after the frontier's retry
	// budget. Wire code wb_fetch_failed.
	ErrFetchFailed = webbot.ErrFetchFailed
)

// GenerateSite builds a synthetic site from a spec.
func GenerateSite(spec SiteSpec) (*Site, error) { return websim.Generate(spec) }

// CaseStudySite is the paper's 917-page / 3 MB workload for the given
// host name.
func CaseStudySite(host string) SiteSpec { return websim.CaseStudySpec(host) }

// Management operations (addressed to the firewall itself, §3.2).
const (
	// OpList asks for the agent listing.
	OpList = firewall.OpList
	// OpRuntime asks for one agent's run time.
	OpRuntime = firewall.OpRuntime
	// OpKill terminates an agent.
	OpKill = firewall.OpKill
	// OpStop suspends an agent.
	OpStop = firewall.OpStop
	// OpResume resumes a stopped agent.
	OpResume = firewall.OpResume
	// OpPolicy asks for the active policy ruleset description.
	OpPolicy = firewall.OpPolicy
	// OpPolicyLoad hot-reloads the policy ruleset from the text in _ARG.
	OpPolicyLoad = firewall.OpPolicyLoad
)
