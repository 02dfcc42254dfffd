package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/wrapper"
)

// bootLoopback boots one taxd node on a free loopback port through the
// same boot main runs.
func bootLoopback(t *testing.T, cfg config) *daemon {
	t.Helper()
	cfg.listen = "127.0.0.1:0"
	d, err := boot(cfg)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	t.Cleanup(d.Close)
	return d
}

// initNoter reports each Init of the layer it wraps.
type initNoter struct {
	wrapper.Wrapper
	note func(string)
}

func (n initNoter) Init(ctx *agent.Context) error {
	n.note(n.Name())
	return n.Wrapper.Init(ctx)
}

// TestLiveHopRebuildsWrapStack: an agent whose _WRAP names a deployed
// wrapper and a spec layer hops between two live nodes, and the
// receiving node rebuilds both layers, in folder order, before the
// agent runs.
func TestLiveHopRebuildsWrapStack(t *testing.T) {
	a := bootLoopback(t, config{})
	b := bootLoopback(t, config{})
	var mu sync.Mutex
	var inits []string
	layers := []string{"audit", "logging(tag=live)"}
	arrived := make(chan []string, 1)
	for _, d := range []*daemon{a, b} {
		self := d.node.Name
		note := func(layer string) {
			mu.Lock()
			inits = append(inits, self+" "+layer)
			mu.Unlock()
		}
		d.node.Wrappers.Register("audit", func() wrapper.Wrapper {
			return initNoter{&wrapper.Logging{Tag: "audit"}, note}
		})
		d.node.Wrappers.RegisterKind("logging", func(p map[string]string) (wrapper.Wrapper, error) {
			return initNoter{&wrapper.Logging{Tag: p["tag"]}, note}, nil
		})
	}
	a.node.Programs.Register("tourer", func(ctx *agent.Context) error {
		return ctx.Go("tacoma://" + b.node.Name + "//vm_go")
	})
	b.node.Programs.Register("tourer", func(ctx *agent.Context) error {
		f, err := ctx.Briefcase().Folder(briefcase.FolderSysWrap)
		if err != nil {
			return err
		}
		arrived <- f.Strings()
		return nil
	})
	bc := briefcase.New()
	bc.Ensure(briefcase.FolderSysWrap).AppendString(layers...)
	if _, err := a.node.VM.Launch("system", "tourer", "tourer", bc); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-arrived:
		if !slices.Equal(got, layers) {
			t.Errorf("_WRAP on arrival = %q, want %q", got, layers)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("agent never ran on the second node")
	}
	want := []string{
		a.node.Name + " logging:audit", a.node.Name + " logging:live",
		b.node.Name + " logging:audit", b.node.Name + " logging:live",
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(inits, want) {
		t.Errorf("layer inits = %q, want %q", inits, want)
	}
}

// TestBootRejectsBadPolicy: an invalid -policy ruleset fails the boot,
// not the first mediation.
func TestBootRejectsBadPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.policy")
	if err := os.WriteFile(path, []byte("oops\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	d, err := boot(config{listen: "127.0.0.1:0", policyFile: path})
	if err == nil {
		d.Close()
		t.Fatal("boot accepted an invalid ruleset")
	}
	if !strings.Contains(err.Error(), "policy") {
		t.Errorf("err = %v, want a policy error", err)
	}
}

// TestBootRejectsDirWithoutSelf: a -dir membership that leaves this
// node's own address out fails the boot.
func TestBootRejectsDirWithoutSelf(t *testing.T) {
	d, err := boot(config{listen: "127.0.0.1:0", dirPlane: "127.0.0.1:1, 127.0.0.1:2"})
	if err == nil {
		d.Close()
		t.Fatal("boot accepted a -dir list without this node")
	}
	if !strings.Contains(err.Error(), "does not include this node") {
		t.Errorf("err = %v, want the self-membership error", err)
	}
}

// TestTelemetryExportsOnlyTheNode: a -telemetry node's metrics come
// from the node alone. Its simulated network stays empty, so no series
// is labelled host="system".
func TestTelemetryExportsOnlyTheNode(t *testing.T) {
	d := bootLoopback(t, config{telOn: true})
	var out strings.Builder
	if err := d.sys.Tower().WriteMetrics(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `host="`) {
		t.Fatalf("no host-labelled series exported:\n%s", out.String())
	}
	for line := range strings.Lines(out.String()) {
		if strings.Contains(line, `host="system"`) {
			t.Errorf("series from the empty simulated network: %s", strings.TrimSpace(line))
		}
	}
}
