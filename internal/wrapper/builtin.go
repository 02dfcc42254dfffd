package wrapper

import (
	"fmt"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/directory"
	"tax/internal/firewall"
)

// Logging observes traffic without modifying it; the simplest wrapper and
// the pass-through used by the wrapper-stack-depth ablation bench.
type Logging struct {
	// Tag labels log lines; also the wrapper name suffix.
	Tag string
	// Sink receives one line per intercepted briefcase; nil discards.
	Sink func(line string)
}

var _ Wrapper = (*Logging)(nil)

// Name implements Wrapper.
func (l *Logging) Name() string { return "logging:" + l.Tag }

// Init implements Wrapper.
func (l *Logging) Init(ctx *agent.Context) error {
	l.log("init on %s", ctx.Host())
	return nil
}

// OnSend implements Wrapper.
func (l *Logging) OnSend(_ *agent.Context, bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	target, _ := bc.GetString(briefcase.FolderSysTarget)
	l.log("send -> %s %s", target, bc)
	return bc, nil
}

// OnReceive implements Wrapper.
func (l *Logging) OnReceive(_ *agent.Context, bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	from, _ := bc.GetString(briefcase.FolderSysSender)
	l.log("recv <- %s %s", from, bc)
	return bc, nil
}

func (l *Logging) log(format string, args ...any) {
	if l.Sink != nil {
		l.Sink(l.Name() + ": " + fmt.Sprintf(format, args...))
	}
}

// StatusOp is the _SVCOP-style folder value a monitoring query carries;
// the Monitor wrapper answers it on the agent's behalf.
const (
	// FolderWrapOp addresses an operation at the wrapper stack rather
	// than the wrapped agent.
	FolderWrapOp = "_WRAPOP"
	// WrapOpStatus asks the monitoring wrapper for the computation's
	// status; the wrapped agent never sees the query.
	WrapOpStatus = "status"
)

// Monitor is the rwWebbot pattern (§5): it "reports back to a monitoring
// tool about the location of the agent it wraps and can be queried about
// the status of the computation". Location reports are sent to the
// monitoring agent on every Init (i.e. on every hop); status queries are
// intercepted and answered from the wrapped agent's STATUS folder.
type Monitor struct {
	// MonitorURI is the ag_monitor address, e.g. "tacoma://home//ag_monitor".
	MonitorURI string
	// Subject labels reports.
	Subject string
}

var _ Wrapper = (*Monitor)(nil)

// Name implements Wrapper.
func (m *Monitor) Name() string { return "monitor:" + m.Subject }

// Init implements Wrapper: report the wrapped agent's new location.
func (m *Monitor) Init(ctx *agent.Context) error {
	return m.report(ctx, "arrived")
}

// OnSend implements Wrapper: a departing move is reported before it
// happens, so the monitoring tool tracks the itinerary.
func (m *Monitor) OnSend(ctx *agent.Context, bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	if firewall.Kind(bc) == firewall.KindTransfer {
		target, _ := bc.GetString(briefcase.FolderSysTarget)
		if err := m.report(ctx, "moving to "+target); err != nil {
			// Monitoring must not block the move; the report is best
			// effort, matching the paper's advisory monitoring role.
			return bc, nil
		}
	}
	return bc, nil
}

// OnReceive implements Wrapper: status queries are answered here; all
// other traffic passes through to the agent.
func (m *Monitor) OnReceive(ctx *agent.Context, bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	if op, ok := bc.GetString(FolderWrapOp); !ok || op != WrapOpStatus {
		return bc, nil
	}
	resp := briefcase.New()
	resp.SetString("HOST", ctx.Host())
	status := resp.Ensure(briefcase.FolderStatus)
	if f, err := ctx.Briefcase().Folder(briefcase.FolderStatus); err == nil {
		for _, s := range f.Strings() {
			status.AppendString(s)
		}
	} else {
		status.AppendString("no status recorded")
	}
	if sender, ok := bc.GetString(briefcase.FolderSysSender); ok {
		if id, ok := bc.GetString(firewall.FolderMsgID); ok {
			resp.SetString(firewall.FolderReplyTo, id)
		}
		if err := ctx.ActivateDirect(sender, resp); err != nil {
			return nil, err
		}
	}
	return nil, nil // consumed: the agent never sees the query
}

// report sends a location/status line to the monitoring agent.
func (m *Monitor) report(ctx *agent.Context, status string) error {
	rep := briefcase.New()
	rep.SetString(briefcase.FolderStatus, m.Subject+": "+status)
	rep.SetString("HOST", ctx.Host())
	return ctx.ActivateDirect(m.MonitorURI, rep)
}

// LocationTransparent rewrites sends addressed to stable names into sends
// to the target's current location, resolved through the directory
// plane; it also re-binds the wrapped agent under its own stable name on
// every hop, which renews the binding's lease. Stacked outside a
// broadcast wrapper it gives the paper's "location transparent wrapper
// around the broadcast wrapper".
type LocationTransparent struct {
	// Client reaches the directory plane.
	Client directory.Client
	// SelfName, when non-empty, is the stable name to (re)bind to the
	// agent's current location on every Init.
	SelfName string
	// Resolve lists the stable names this wrapper rewrites on send.
	Resolve map[string]bool
}

var _ Wrapper = (*LocationTransparent)(nil)

// Name implements Wrapper.
func (lt *LocationTransparent) Name() string { return "loctrans:" + lt.SelfName }

// Init implements Wrapper: publish the new location.
func (lt *LocationTransparent) Init(ctx *agent.Context) error {
	if lt.SelfName == "" {
		return nil
	}
	return lt.Client.Update(ctx, lt.SelfName)
}

// OnSend implements Wrapper: rewrite stable-name targets.
func (lt *LocationTransparent) OnSend(ctx *agent.Context, bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	target, ok := bc.GetString(briefcase.FolderSysTarget)
	if !ok || !lt.Resolve[target] {
		return bc, nil
	}
	loc, err := lt.Client.Lookup(ctx, target)
	if err != nil {
		return nil, fmt.Errorf("location lookup %q: %w", target, err)
	}
	bc.SetString(briefcase.FolderSysTarget, loc)
	return bc, nil
}

// OnReceive implements Wrapper (pass-through).
func (lt *LocationTransparent) OnReceive(_ *agent.Context, bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	return bc, nil
}
