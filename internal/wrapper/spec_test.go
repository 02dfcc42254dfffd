package wrapper_test

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/wrapper"
)

// build rebuilds the stack a _WRAP folder holding layers names.
func build(r *wrapper.Registry, layers ...string) (*wrapper.Stack, error) {
	bc := briefcase.New()
	bc.Ensure(briefcase.FolderSysWrap).AppendString(layers...)
	return r.Build(bc)
}

func TestSpecGenerateSingle(t *testing.T) {
	s, err := build(wrapper.NewRegistry(), "logging(tag=x)")
	if err != nil {
		t.Fatal(err)
	}
	if s.Depth() != 1 || s.Names()[0] != "logging:x" {
		t.Errorf("stack = %v", s.Names())
	}
}

func TestSpecGenerateStack(t *testing.T) {
	s, err := build(wrapper.NewRegistry(), "monitor(uri=tacoma://home//ag_monitor, subject=job)", "logging(tag=dbg)")
	if err != nil {
		t.Fatal(err)
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "monitor:job" || names[1] != "logging:dbg" {
		t.Errorf("stack order = %v", names)
	}
}

func TestSpecGenerateGroup(t *testing.T) {
	s, err := build(wrapper.NewRegistry(), "group(name=readers, self=a, members=a;b;c, order=causal)")
	if err != nil {
		t.Fatal(err)
	}
	if s.Depth() != 1 || s.Names()[0] != "group:readers" {
		t.Errorf("stack = %v", s.Names())
	}
}

func TestSpecGenerateLoctrans(t *testing.T) {
	s, err := build(wrapper.NewRegistry(), "loctrans(dir=d1;d2;d3, self=me, resolve=peer;other)")
	if err != nil {
		t.Fatal(err)
	}
	if s.Depth() != 1 || s.Names()[0] != "loctrans:me" {
		t.Errorf("stack = %v", s.Names())
	}
}

func TestSpecGenerateEmpty(t *testing.T) {
	s, err := build(wrapper.NewRegistry())
	if err != nil || s.Depth() != 0 {
		t.Errorf("empty _WRAP: %v, %v", s, err)
	}
}

func TestSpecGenerateErrors(t *testing.T) {
	r := wrapper.NewRegistry()
	tests := []struct {
		name   string
		layers []string
	}{
		{"unknown kind", []string{"teleport(x=1)"}},
		{"unterminated params", []string{"logging(tag=x"}},
		{"bad param", []string{"logging(tagx)"}},
		{"empty layer", []string{"logging(tag=a)", "", "logging(tag=b)"}},
		{"monitor without uri", []string{"monitor(subject=j)"}},
		{"group missing members", []string{"group(name=g, self=a)"}},
		{"group bad order", []string{"group(name=g, self=a, members=a;b, order=psychic)"}},
		{"loctrans without service", []string{"loctrans(self=x)"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := build(r, tt.layers...); err == nil {
				t.Errorf("_WRAP %q accepted", tt.layers)
			}
		})
	}
}

func TestSpecCustomKind(t *testing.T) {
	r := wrapper.NewRegistry()
	r.RegisterKind("rec", func(p map[string]string) (wrapper.Wrapper, error) {
		return &initRecorder{onInit: func(string) {}}, nil
	})
	s, err := build(r, "rec")
	if err != nil || s.Depth() != 1 {
		t.Errorf("custom kind: %v, %v", s, err)
	}
}

func TestWrapSpecTravelsWithAgent(t *testing.T) {
	// A monitor layer written into _WRAP as a spec is regenerated on
	// every hop: the monitoring tool hears arrivals on both hosts
	// without any deployed wrapper factory.
	s := newSystem(t, "home", "h2")
	home, _ := s.Node("home")
	events := launchMonitor(t, home)

	s.DeployProgram("roamer", func(ctx *agent.Context) error {
		if ctx.Host() == "home" {
			if err := ctx.Go("tacoma://h2//vm_go"); errors.Is(err, agent.ErrMoved) {
				return err
			}
		}
		return nil
	})
	bc := briefcase.New()
	bc.Ensure(briefcase.FolderSysWrap).AppendString("monitor(uri=tacoma://home//ag_monitor, subject=roamer)")
	if _, err := home.VM.Launch("system", "roamer", "roamer", bc); err != nil {
		t.Fatal(err)
	}
	var got []string
	timeout := time.After(5 * time.Second)
	for len(got) < 3 {
		select {
		case ev := <-events:
			got = append(got, ev.Host+"/"+ev.Status)
		case <-timeout:
			t.Fatalf("monitor heard only %v", got)
		}
	}
	joined := strings.Join(got, "\n")
	for _, want := range []string{"home/roamer: arrived", "moving to", "h2/roamer: arrived"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in:\n%s", want, joined)
		}
	}
}

// initNoter reports each Init of the layer it wraps.
type initNoter struct {
	wrapper.Wrapper
	note func(string)
}

func (n initNoter) Init(ctx *agent.Context) error {
	n.note(n.Name() + "@" + ctx.Host())
	return n.Wrapper.Init(ctx)
}

func TestWrapMixesNamesAndSpecs(t *testing.T) {
	// One _WRAP holds a deployed name and a spec layer; every hop of a
	// three-host tour rebuilds both, in folder order, and the folder
	// travels as it was written.
	hosts := []string{"h1", "h2", "h3"}
	s := newSystem(t, hosts...)
	const ckpt = "/ckpt/mixed"
	layers := []string{"checkpoint:" + ckpt, "logging(tag=outer)"}
	var mu sync.Mutex
	var inits []string
	note := func(ev string) {
		mu.Lock()
		inits = append(inits, ev)
		mu.Unlock()
	}
	s.DeployWrapper(layers[0], func() wrapper.Wrapper {
		return initNoter{&wrapper.Checkpoint{StoreURI: "tacoma://h1//ag_fs", Path: ckpt}, note}
	})
	for _, h := range hosts {
		n, _ := s.Node(h)
		n.Wrappers.RegisterKind("logging", func(p map[string]string) (wrapper.Wrapper, error) {
			return initNoter{&wrapper.Logging{Tag: p["tag"]}, note}, nil
		})
	}
	seen := make(chan []string, len(hosts))
	s.DeployProgram("tourer", func(ctx *agent.Context) error {
		f, err := ctx.Briefcase().Folder(briefcase.FolderSysWrap)
		if err != nil {
			return err
		}
		seen <- f.Strings()
		if i := slices.Index(hosts, ctx.Host()); i+1 < len(hosts) {
			return ctx.Go("tacoma://" + hosts[i+1] + "//vm_go")
		}
		return nil
	})
	bc := briefcase.New()
	bc.Ensure(briefcase.FolderSysWrap).AppendString(layers...)
	n1, _ := s.Node("h1")
	if _, err := n1.VM.Launch("system", "tourer", "tourer", bc); err != nil {
		t.Fatal(err)
	}
	for range hosts {
		select {
		case got := <-seen:
			if !slices.Equal(got, layers) {
				t.Errorf("_WRAP = %q, want %q", got, layers)
			}
		case <-time.After(5 * time.Second):
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("tour stalled; inits so far %v", inits)
		}
	}
	var want []string
	for _, h := range hosts {
		want = append(want, "checkpoint:"+ckpt+"@"+h, "logging:outer@"+h)
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(inits, want) {
		t.Errorf("layer inits = %v, want %v", inits, want)
	}
}

func TestSpecRejectedAtActivation(t *testing.T) {
	// A bad spec aborts activation rather than running unwrapped.
	s := newSystem(t, "h1")
	n, _ := s.Node("h1")
	ran := make(chan struct{}, 1)
	n.Programs.Register("naked", func(ctx *agent.Context) error {
		ran <- struct{}{}
		return nil
	})
	bc := briefcase.New()
	bc.Ensure(briefcase.FolderSysWrap).AppendString("teleport(beam=up)")
	if _, err := n.VM.Launch("system", "naked", "naked", bc); err != nil {
		t.Fatal(err) // launch enqueues; the failure is at activation
	}
	select {
	case <-ran:
		t.Error("agent ran despite invalid wrapper spec")
	case <-time.After(300 * time.Millisecond):
	}
}
