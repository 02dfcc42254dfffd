package core

import (
	"time"

	"tax/internal/firewall"
	"tax/internal/policy"
	"tax/internal/telemetry"
)

// Option tunes one host at AddNodeWith time. Options are the preferred
// way to configure nodes: they compose, read at the call site, and new
// knobs never break existing callers. The NodeOptions struct remains as
// a deprecated shim — every Option is a one-line setter over it, so the
// two styles configure exactly the same machinery.
//
//	node, err := sys.AddNodeWith("mars",
//		core.WithSecureChannels(),
//		core.WithDedupWindow(1024),
//		core.WithBatching(firewall.BatchConfig{MaxFrames: 16}),
//	)
type Option func(*NodeOptions)

// WithArch sets the machine architecture tag (default vm.DefaultArch).
func WithArch(arch string) Option { return func(o *NodeOptions) { o.Arch = arch } }

// WithBypass enables VM-internal delivery between co-located agents.
func WithBypass() Option { return func(o *NodeOptions) { o.Bypass = true } }

// WithRequireAuth makes the firewall reject unsigned inbound transfers.
func WithRequireAuth() Option { return func(o *NodeOptions) { o.RequireAuth = true } }

// WithQueueTimeout overrides the firewall's parked-message timeout.
func WithQueueTimeout(d time.Duration) Option {
	return func(o *NodeOptions) { o.QueueTimeout = d }
}

// WithForwardRetry sets the node's default retry policy for remote
// forwards (briefcases may override it via _RETRY).
func WithForwardRetry(p firewall.RetryPolicy) Option {
	return func(o *NodeOptions) { o.ForwardRetry = p }
}

// WithDedupWindow enables inbound duplicate-frame suppression on the
// node's firewall, remembering the last n frame hashes.
func WithDedupWindow(n int) Option { return func(o *NodeOptions) { o.DedupWindow = n } }

// WithTrace routes kernel instrumentation events to fn.
func WithTrace(fn func(event string)) Option { return func(o *NodeOptions) { o.Trace = fn } }

// WithoutServices skips launching the standard service agents.
func WithoutServices() Option { return func(o *NodeOptions) { o.NoServices = true } }

// WithoutCVM skips the C virtual machine and its compile services.
func WithoutCVM() Option { return func(o *NodeOptions) { o.NoCVM = true } }

// WithOnAgentDone observes every agent completion on this node's VMs
// (nil on clean exit, agent.ErrMoved after a move, else the fault).
func WithOnAgentDone(fn func(name string, err error)) Option {
	return func(o *NodeOptions) { o.OnAgentDone = fn }
}

// WithSecureChannels signs every inter-firewall frame with a per-host
// firewall principal and rejects unsigned or untrusted inbound frames.
func WithSecureChannels() Option { return func(o *NodeOptions) { o.SecureChannels = true } }

// WithTelemetry overrides the telemetry instance this node's firewall
// reports into.
func WithTelemetry(t *telemetry.Telemetry) Option {
	return func(o *NodeOptions) { o.Telemetry = t }
}

// WithFsyncCost sets the simulated latency of one fsync on the node's
// cabinet disk; zero uses cabinet.DefaultSyncLatency.
func WithFsyncCost(d time.Duration) Option { return func(o *NodeOptions) { o.FsyncCost = d } }

// WithSnapshotEvery sets the cabinet's WAL-compaction interval in
// committed transactions; negative disables snapshots (pure WAL). Zero,
// the default, compacts in proportion to what was written: once the WAL
// since the last snapshot outweighs the image a snapshot would write.
func WithSnapshotEvery(n int) Option { return func(o *NodeOptions) { o.SnapshotEvery = n } }

// WithBatching enables coalesced outbound mediation on the node's
// firewall: same-destination frames share one network transfer, flushed
// by the thresholds in cfg. Every batched frame is still individually
// policy-checked at the receiver — batching moves bytes, not trust.
func WithBatching(cfg firewall.BatchConfig) Option {
	return func(o *NodeOptions) { o.Batch = &cfg }
}

// WithRelay makes the node's firewall forward inbound frames whose
// target is another host toward their next hop instead of dropping
// them. The wire bytes are forwarded verbatim after header-only
// re-mediation — a multi-hop itinerary encodes once at the origin and
// decodes once at the final receiver. resolve is the next-hop table
// (agent-URI host and port to transport address); nil means the host
// name is the transport address, i.e. every destination is a direct
// neighbor.
func WithRelay(resolve func(host string, port int) (string, error)) Option {
	return func(o *NodeOptions) {
		o.Relay = true
		if resolve != nil {
			o.Resolve = resolve
		}
	}
}

// WithGroupCommit coalesces concurrent cabinet Commit callers on this
// node into shared fsyncs: a leader drains the queue and syncs once for
// the whole batch, and every caller still returns only after its record
// is durable. maxTxns bounds the coalesce window (zero uses
// cabinet.DefaultGroupMaxTxns). Amortizes fsync cost the way batched
// mediation amortizes transfer cost.
func WithGroupCommit(maxTxns int) Option {
	return func(o *NodeOptions) {
		o.GroupCommit = true
		o.GroupMaxTxns = maxTxns
	}
}

// WithPolicy installs a declarative mediation ruleset on the node's
// firewall (see internal/policy for the line grammar: default
// allow/deny, first-match allow/deny/park rules over principal glob ×
// operation × target URI pattern, quota lines). The text is parsed at
// AddNode time — a bad ruleset fails the boot — and every non-system
// mediation is then evaluated against it, default-deny when no rule
// matches. Hot reload goes through Node.FW.ReloadPolicy or the
// "policyload" management operation.
func WithPolicy(ruleset string) Option {
	return func(o *NodeOptions) { o.Policy = ruleset }
}

// WithQuotas sets the default per-principal token-bucket quota: the
// rate/byte limits charged to principals no quota rule matches. Used
// alone (no WithPolicy) it meters the legacy mediation decisions under
// the allow-all compatibility ruleset; combined with WithPolicy, quota
// lines in the ruleset take precedence per principal.
func WithQuotas(q policy.Quota) Option {
	return func(o *NodeOptions) { o.Quota = &q }
}

// AddNodeWith boots a host configured by functional options. It is
// AddNode with the NodeOptions struct assembled for you; the zero
// option set gives a standard node.
func (s *System) AddNodeWith(name string, opts ...Option) (*Node, error) {
	var no NodeOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&no)
		}
	}
	return s.AddNode(name, no)
}
