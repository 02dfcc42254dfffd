package wrapper

import (
	"fmt"
	"strings"

	"tax/internal/directory"
	"tax/internal/group"
)

// The paper closes with "we are currently working on ... a framework for
// automatic generation of layers of wrappers". This file is that
// framework: a wrapper layer is generated from a declarative spec instead
// of a deployed factory, so a launch site (or the agent itself) can write
// into the briefcase's _WRAP folder, outermost layer first,
//
//	monitor(uri=tacoma://home//ag_monitor, subject=webbot)
//	logging(tag=dbg)
//
// and every host rebuilds the stack from its Registry on arrival. An
// element that is not a deployed name is one layer:
//
//	layer  = kind [ "(" param { "," param } ")" ]
//	param  = key "=" value          (value may not contain "," or ")";
//	                                 list-valued params use ";" inside)

// NewRegistry returns a registry with the built-in layer kinds:
//
//	logging(tag=…)
//	monitor(uri=…, subject=…)
//	loctrans(dir=a;b;c, self=…, resolve=a;b;c)
//	checkpoint(store=…, path=…)
//	group(name=…, self=…, members=a;b;c, order=fifo|causal|total)
//
// loctrans's dir= lists the directory plane's members; its ring assumes
// the plane runs directory.DefaultVNodes and directory.DefaultReplicas.
// A zero Registry has no kinds.
func NewRegistry() *Registry {
	r := &Registry{}
	r.RegisterKind("logging", func(p map[string]string) (Wrapper, error) {
		return &Logging{Tag: p["tag"]}, nil
	})
	r.RegisterKind("monitor", func(p map[string]string) (Wrapper, error) {
		if p["uri"] == "" {
			return nil, fmt.Errorf("wrapper: monitor needs uri=")
		}
		return &Monitor{MonitorURI: p["uri"], Subject: p["subject"]}, nil
	})
	r.RegisterKind("loctrans", func(p map[string]string) (Wrapper, error) {
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
	r.RegisterKind("checkpoint", func(p map[string]string) (Wrapper, error) {
		if p["store"] == "" || p["path"] == "" {
			return nil, fmt.Errorf("wrapper: checkpoint needs store= and path=")
		}
		return &Checkpoint{StoreURI: p["store"], Path: p["path"]}, nil
	})
	r.RegisterKind("group", func(p map[string]string) (Wrapper, error) {
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

// generateLayer builds one _WRAP element: a deployed name, looked up
// exactly first, else a spec layer kind(k=v, …).
func (r *Registry) generateLayer(item string) (Wrapper, error) {
	if factory, ok := r.lookup(item); ok {
		return factory(nil)
	}
	if item == "" {
		return nil, fmt.Errorf("wrapper: empty layer")
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
	factory, ok := r.lookup(kind)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownWrapper, kind)
	}
	w, err := factory(params)
	if err != nil {
		return nil, fmt.Errorf("wrapper: layer %q: %w", kind, err)
	}
	return w, nil
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
