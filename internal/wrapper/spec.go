package wrapper

import (
	"fmt"
	"strings"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/directory"
	"tax/internal/group"
)

// The paper closes with "we are currently working on ... a framework for
// automatic generation of layers of wrappers". This file is that
// framework: wrapper stacks are generated from a declarative spec string
// instead of hand-assembled code, so a launch site (or the agent's own
// briefcase) can declare
//
//	monitor(uri=tacoma://home//ag_monitor, subject=webbot) | logging(tag=dbg)
//
// and every host rebuilds the stack from its spec registry on arrival.
// Grammar (outermost layer first):
//
//	spec   = layer { "|" layer }
//	layer  = kind [ "(" param { "," param } ")" ]
//	param  = key "=" value          (value may not contain "," or ")";
//	                                 list-valued params use ";" inside)

// FolderWrapSpec carries a wrapper spec in a briefcase; PreLaunchSpec
// generates and installs the stack on every activation.
const FolderWrapSpec = "_WRAPSPEC"

// ParamFactory builds one wrapper layer from its parameters.
type ParamFactory func(params map[string]string) (Wrapper, error)

// SpecRegistry maps layer kinds to parameterized factories. A zero
// registry has no kinds; NewSpecRegistry pre-registers the built-in
// layers.
type SpecRegistry struct {
	m map[string]ParamFactory
}

// NewSpecRegistry returns a registry with the built-in layer kinds:
//
//	logging(tag=…)
//	monitor(uri=…, subject=…)
//	loctrans(dir=a;b;c, self=…, resolve=a;b;c)
//	checkpoint(store=…, path=…)
//	group(name=…, self=…, members=a;b;c, order=fifo|causal|total)
//
// loctrans's dir= lists the directory plane's members; its ring assumes
// the plane runs directory.DefaultVNodes and directory.DefaultReplicas.
func NewSpecRegistry() *SpecRegistry {
	r := &SpecRegistry{}
	r.Register("logging", func(p map[string]string) (Wrapper, error) {
		return &Logging{Tag: p["tag"]}, nil
	})
	r.Register("monitor", func(p map[string]string) (Wrapper, error) {
		if p["uri"] == "" {
			return nil, fmt.Errorf("wrapper: monitor needs uri=")
		}
		return &Monitor{MonitorURI: p["uri"], Subject: p["subject"]}, nil
	})
	r.Register("loctrans", func(p map[string]string) (Wrapper, error) {
		members := splitList(p["dir"])
		if len(members) == 0 {
			return nil, fmt.Errorf("wrapper: loctrans needs dir=")
		}
		ring, err := directory.NewRing(members, 0, directory.DefaultReplicas)
		if err != nil {
			return nil, err
		}
		resolve := map[string]bool{}
		for _, name := range splitList(p["resolve"]) {
			resolve[name] = true
		}
		return &LocationTransparent{
			Client:   directory.Client{Ring: ring},
			SelfName: p["self"],
			Resolve:  resolve,
		}, nil
	})
	r.Register("checkpoint", func(p map[string]string) (Wrapper, error) {
		if p["store"] == "" || p["path"] == "" {
			return nil, fmt.Errorf("wrapper: checkpoint needs store= and path=")
		}
		return &Checkpoint{StoreURI: p["store"], Path: p["path"]}, nil
	})
	r.Register("group", func(p map[string]string) (Wrapper, error) {
		order, err := group.ParseOrdering(valueOr(p["order"], "fifo"))
		if err != nil {
			return nil, err
		}
		members := splitList(p["members"])
		if p["name"] == "" || p["self"] == "" || len(members) == 0 {
			return nil, fmt.Errorf("wrapper: group needs name=, self= and members=")
		}
		return &Group{
			GroupName: p["name"],
			Members:   members,
			Self:      p["self"],
			Ordering:  order,
		}, nil
	})
	return r
}

// Register adds (or replaces) a layer kind.
func (r *SpecRegistry) Register(kind string, f ParamFactory) {
	if r.m == nil {
		r.m = make(map[string]ParamFactory)
	}
	r.m[kind] = f
}

// Generate parses a spec and builds the stack, outermost layer first.
func (r *SpecRegistry) Generate(spec string) (*Stack, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return NewStack(), nil
	}
	var layers []Wrapper
	for _, item := range strings.Split(spec, "|") {
		w, err := r.generateLayer(strings.TrimSpace(item))
		if err != nil {
			return nil, err
		}
		layers = append(layers, w)
	}
	return NewStack(layers...), nil
}

func (r *SpecRegistry) generateLayer(item string) (Wrapper, error) {
	if item == "" {
		return nil, fmt.Errorf("wrapper: empty layer in spec")
	}
	kind := item
	params := map[string]string{}
	if open := strings.IndexByte(item, '('); open >= 0 {
		if !strings.HasSuffix(item, ")") {
			return nil, fmt.Errorf("wrapper: unterminated parameters in %q", item)
		}
		kind = strings.TrimSpace(item[:open])
		for _, kv := range strings.Split(item[open+1:len(item)-1], ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("wrapper: bad parameter %q in %q", kv, item)
			}
			params[strings.TrimSpace(k)] = strings.TrimSpace(v)
		}
	}
	factory, ok := r.m[kind]
	if !ok {
		return nil, fmt.Errorf("%w: kind %q", ErrUnknownWrapper, kind)
	}
	w, err := factory(params)
	if err != nil {
		return nil, fmt.Errorf("wrapper: layer %q: %w", kind, err)
	}
	return w, nil
}

// PreLaunchSpec returns a vm PreLaunch hook that generates the stack
// named by the briefcase's _WRAPSPEC folder (if any) and installs it,
// composing with hand-registered _WRAP stacks via reg.
func (r *SpecRegistry) PreLaunchSpec(reg *Registry) func(ctx *agent.Context) error {
	return func(ctx *agent.Context) error {
		bc := ctx.Briefcase()
		var stack *Stack
		if reg != nil {
			s, err := reg.Build(bc)
			if err != nil {
				return err
			}
			stack = s
		}
		if spec, ok := bc.GetString(FolderWrapSpec); ok {
			gen, err := r.Generate(spec)
			if err != nil {
				return err
			}
			if stack == nil {
				stack = gen
			} else {
				// Generated layers wrap outside the named stack.
				for i := len(gen.wrappers) - 1; i >= 0; i-- {
					stack.Push(gen.wrappers[i])
				}
			}
		}
		if stack == nil || stack.Depth() == 0 {
			return nil
		}
		return installSpec(ctx, stack)
	}
}

// installSpec installs without rewriting _WRAP (the spec folder already
// travels; writing both would duplicate layers on the next hop).
func installSpec(ctx *agent.Context, s *Stack) error {
	hadWrap := ctx.Briefcase().Has(briefcase.FolderSysWrap)
	if err := s.Install(ctx); err != nil {
		return err
	}
	if !hadWrap {
		ctx.Briefcase().Drop(briefcase.FolderSysWrap)
	}
	return nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, v := range strings.Split(s, ";") {
		v = strings.TrimSpace(v)
		if v != "" {
			out = append(out, v)
		}
	}
	return out
}

func valueOr(v, def string) string {
	if v == "" {
		return def
	}
	return v
}
