package wrapper_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/wrapper"
)

func TestSpecGenerateSingle(t *testing.T) {
	r := wrapper.NewSpecRegistry()
	s, err := r.Generate("logging(tag=x)")
	if err != nil {
		t.Fatal(err)
	}
	if s.Depth() != 1 || s.Names()[0] != "logging:x" {
		t.Errorf("stack = %v", s.Names())
	}
}

func TestSpecGenerateStack(t *testing.T) {
	r := wrapper.NewSpecRegistry()
	s, err := r.Generate("monitor(uri=tacoma://home//ag_monitor, subject=job) | logging(tag=dbg)")
	if err != nil {
		t.Fatal(err)
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "monitor:job" || names[1] != "logging:dbg" {
		t.Errorf("stack order = %v", names)
	}
}

func TestSpecGenerateGroup(t *testing.T) {
	r := wrapper.NewSpecRegistry()
	s, err := r.Generate("group(name=readers, self=a, members=a;b;c, order=causal)")
	if err != nil {
		t.Fatal(err)
	}
	if s.Depth() != 1 || s.Names()[0] != "group:readers" {
		t.Errorf("stack = %v", s.Names())
	}
}

func TestSpecGenerateLoctrans(t *testing.T) {
	r := wrapper.NewSpecRegistry()
	s, err := r.Generate("loctrans(dir=d1;d2;d3, self=me, resolve=peer;other)")
	if err != nil {
		t.Fatal(err)
	}
	if s.Depth() != 1 || s.Names()[0] != "loctrans:me" {
		t.Errorf("stack = %v", s.Names())
	}
}

func TestSpecGenerateEmpty(t *testing.T) {
	r := wrapper.NewSpecRegistry()
	s, err := r.Generate("  ")
	if err != nil || s.Depth() != 0 {
		t.Errorf("empty spec: %v, %v", s, err)
	}
}

func TestSpecGenerateErrors(t *testing.T) {
	r := wrapper.NewSpecRegistry()
	tests := []struct {
		name, spec string
	}{
		{"unknown kind", "teleport(x=1)"},
		{"unterminated params", "logging(tag=x"},
		{"bad param", "logging(tagx)"},
		{"empty layer", "logging(tag=a) | | logging(tag=b)"},
		{"monitor without uri", "monitor(subject=j)"},
		{"group missing members", "group(name=g, self=a)"},
		{"group bad order", "group(name=g, self=a, members=a;b, order=psychic)"},
		{"loctrans without service", "loctrans(self=x)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := r.Generate(tt.spec); err == nil {
				t.Errorf("spec %q accepted", tt.spec)
			}
		})
	}
}

func TestSpecCustomKind(t *testing.T) {
	r := wrapper.NewSpecRegistry()
	r.Register("rec", func(p map[string]string) (wrapper.Wrapper, error) {
		return &initRecorder{onInit: func(string) {}}, nil
	})
	s, err := r.Generate("rec")
	if err != nil || s.Depth() != 1 {
		t.Errorf("custom kind: %v, %v", s, err)
	}
}

func TestWrapSpecTravelsWithAgent(t *testing.T) {
	// A _WRAPSPEC-declared monitor stack is regenerated on every hop:
	// the monitoring tool hears arrivals on both hosts without any
	// hand-registered wrapper factory.
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
	bc.SetString(wrapper.FolderWrapSpec,
		"monitor(uri=tacoma://home//ag_monitor, subject=roamer)")
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

func TestWrapSpecComposesWithNamedStack(t *testing.T) {
	// _WRAPSPEC layers wrap outside a _WRAP-named stack.
	s := newSystem(t, "h1")
	n, _ := s.Node("h1")
	var mu []string
	var order = &mu
	_ = order
	done := make(chan []string, 1)
	n.Wrappers.Register("inner-rec", func() wrapper.Wrapper {
		return &hookWrapper{name: "inner", note: func(tag, ev string) {}}
	})
	n.Programs.Register("probe", func(ctx *agent.Context) error {
		// After PreLaunch, the briefcase still names only the inner
		// stack in _WRAP (the spec travels separately).
		f, err := ctx.Briefcase().Folder(briefcase.FolderSysWrap)
		if err != nil {
			done <- nil
			return err
		}
		done <- f.Strings()
		return nil
	})
	bc := briefcase.New()
	bc.Ensure(briefcase.FolderSysWrap).AppendString("inner-rec")
	bc.SetString(wrapper.FolderWrapSpec, "logging(tag=outer)")
	if _, err := n.VM.Launch("system", "probe", "probe", bc); err != nil {
		t.Fatal(err)
	}
	select {
	case names := <-done:
		joined := strings.Join(names, ",")
		if !strings.Contains(joined, "inner") {
			t.Errorf("_WRAP = %v", names)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("probe stalled")
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
	bc.SetString(wrapper.FolderWrapSpec, "teleport(beam=up)")
	if _, err := n.VM.Launch("system", "naked", "naked", bc); err != nil {
		t.Fatal(err) // launch enqueues; the failure is at activation
	}
	select {
	case <-ran:
		t.Error("agent ran despite invalid wrapper spec")
	case <-time.After(300 * time.Millisecond):
	}
}
