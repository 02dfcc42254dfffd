// Package wrapper implements TAX wrappers (§4): interchangeable modules
// that expand the functionality of agents without modifying the agents
// themselves.
//
// Agents can perform only two actions observable to the system — sending
// a briefcase and receiving a briefcase — and it is exactly this
// interface a wrapper observes and intercepts. Wrappers are treated by
// the system as regular agents: the system passes any briefcase from the
// agent to the wrapper, and any briefcase addressed to the agent is sent
// to the wrapper first. Wrappers stack in arbitrary depth and may
// originate from the local system or travel as part of the mobile agent
// (the _WRAP folder carries the stack across moves).
package wrapper

import (
	"errors"
	"fmt"
	"sync"

	"tax/internal/agent"
	"tax/internal/briefcase"
)

// Wrapper observes and intercepts an agent's sends and receives.
type Wrapper interface {
	// Name identifies the wrapper type in _WRAP folders and logs.
	Name() string
	// Init runs when the wrapped agent starts executing on a host (both
	// on first launch and after each move).
	Init(ctx *agent.Context) error
	// OnSend sees every briefcase the agent sends, before routing.
	// Return the (possibly rewritten) briefcase to continue outward, nil
	// to swallow the send.
	OnSend(ctx *agent.Context, bc *briefcase.Briefcase) (*briefcase.Briefcase, error)
	// OnReceive sees every briefcase addressed to the agent, before the
	// agent does. Return the (possibly rewritten) briefcase to continue
	// inward, nil to consume it.
	OnReceive(ctx *agent.Context, bc *briefcase.Briefcase) (*briefcase.Briefcase, error)
}

// Finalizer is an optional interface a Wrapper may implement to observe
// the wrapped agent's end of life on a host. OnDone runs on the agent
// goroutine after the handler returns and before the registration is
// torn down, with the terminal error (nil on clean completion,
// agent.ErrMoved after a move, else the fault) — so a wrapper can, for
// example, prune the checkpoints of an itinerary that completed.
type Finalizer interface {
	OnDone(ctx *agent.Context, err error)
}

// Stack is an ordered set of wrappers around one agent; index 0 is the
// outermost. Sends pass innermost→outermost (the agent's own wrapper sees
// its traffic first); receives pass outermost→innermost, mirroring the
// paper's "any briefcase addressed to the agent is sent to the wrapper
// first".
type Stack struct {
	wrappers []Wrapper
}

// NewStack builds a stack, outermost first.
func NewStack(outermostFirst ...Wrapper) *Stack {
	return &Stack{wrappers: outermostFirst}
}

// Depth returns the number of stacked wrappers.
func (s *Stack) Depth() int { return len(s.wrappers) }

// Names returns the wrapper names, outermost first.
func (s *Stack) Names() []string {
	out := make([]string, len(s.wrappers))
	for i, w := range s.wrappers {
		out[i] = w.Name()
	}
	return out
}

// Install wires the stack into the agent context and runs each wrapper's
// Init, outermost first. The stack's names are also recorded in the
// briefcase's _WRAP folder, so a stack built by hand travels with the
// agent.
func (s *Stack) Install(ctx *agent.Context) error {
	f := ctx.Briefcase().Ensure(briefcase.FolderSysWrap)
	f.Clear()
	for _, w := range s.wrappers {
		f.AppendString(w.Name())
	}
	return s.install(ctx)
}

// install is Install without the _WRAP record: a stack rebuilt from the
// folder leaves it as it travelled.
func (s *Stack) install(ctx *agent.Context) error {
	ctx.SetInterceptors(
		func(bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
			cur := bc
			for i := len(s.wrappers) - 1; i >= 0; i-- {
				var err error
				cur, err = s.wrappers[i].OnSend(ctx, cur)
				if err != nil {
					return nil, fmt.Errorf("wrapper %s: %w", s.wrappers[i].Name(), err)
				}
				if cur == nil {
					return nil, nil
				}
			}
			return cur, nil
		},
		func(bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
			cur := bc
			for _, w := range s.wrappers {
				var err error
				cur, err = w.OnReceive(ctx, cur)
				if err != nil {
					return nil, fmt.Errorf("wrapper %s: %w", w.Name(), err)
				}
				if cur == nil {
					return nil, nil
				}
			}
			return cur, nil
		},
	)
	ctx.SetFinalizer(func(err error) {
		// Innermost first, mirroring send order: the wrapper closest to
		// the agent sees its termination first.
		for i := len(s.wrappers) - 1; i >= 0; i-- {
			if f, ok := s.wrappers[i].(Finalizer); ok {
				f.OnDone(ctx, err)
			}
		}
	})
	for _, w := range s.wrappers {
		if err := w.Init(ctx); err != nil {
			return fmt.Errorf("wrapper %s: init: %w", w.Name(), err)
		}
	}
	return nil
}

// Factory constructs a fresh wrapper instance for an arriving agent.
type Factory func() Wrapper

// ParamFactory builds one wrapper layer from a spec layer's parameters
// (nil when the _WRAP element names the kind bare).
type ParamFactory func(params map[string]string) (Wrapper, error)

// Registry is a host's one wrapper registry: the names deployed on it
// and the spec layer kinds it generates (spec.go). It is the wrapper
// counterpart of the program registry; an arriving agent's stack is
// rebuilt from it, one layer per element of the _WRAP folder. Safe for
// concurrent use.
type Registry struct {
	mu sync.RWMutex
	m  map[string]ParamFactory
}

// ErrUnknownWrapper is returned when a _WRAP element is neither a name
// deployed on this host nor a spec layer of a registered kind.
var ErrUnknownWrapper = errors.New("wrapper: unknown wrapper")

// Register deploys a wrapper factory under name; a _WRAP element equal
// to name builds it.
func (r *Registry) Register(name string, f Factory) {
	r.RegisterKind(name, func(map[string]string) (Wrapper, error) { return f(), nil })
}

// RegisterKind adds (or replaces) a spec layer kind; a _WRAP element
// kind(k=v, …) builds it from its parameters.
func (r *Registry) RegisterKind(kind string, f ParamFactory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[string]ParamFactory)
	}
	r.m[kind] = f
}

func (r *Registry) lookup(name string) (ParamFactory, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.m[name]
	return f, ok
}

// Build constructs the stack named by the briefcase's _WRAP folder
// (outermost first), one layer per element (generateLayer). A briefcase
// without the folder yields a nil stack.
func (r *Registry) Build(bc *briefcase.Briefcase) (*Stack, error) {
	if !bc.Has(briefcase.FolderSysWrap) {
		return nil, nil
	}
	f, err := bc.Folder(briefcase.FolderSysWrap)
	if err != nil {
		return nil, err
	}
	var ws []Wrapper
	for _, item := range f.Strings() {
		w, err := r.generateLayer(item)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return NewStack(ws...), nil
}

// PreLaunch returns a vm.Config.PreLaunch hook that rebuilds and installs
// the travelling wrapper stack on every activation, leaving _WRAP as it
// arrived.
func (r *Registry) PreLaunch() func(ctx *agent.Context) error {
	return func(ctx *agent.Context) error {
		stack, err := r.Build(ctx.Briefcase())
		if err != nil || stack == nil {
			return err
		}
		return stack.install(ctx)
	}
}
