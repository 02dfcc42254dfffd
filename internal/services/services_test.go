package services_test

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/core"
	"tax/internal/firewall"
	"tax/internal/services"
	"tax/internal/simnet"
	"tax/internal/vm"
)

func newNode(t *testing.T) *core.Node {
	t.Helper()
	s, err := core.NewSystem(simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	n, err := s.AddNode("h1", core.NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// rpc sends a service request from a scratch registration and waits for
// the correlated reply.
func rpc(t *testing.T, n *core.Node, target string, build func(*briefcase.Briefcase)) *briefcase.Briefcase {
	t.Helper()
	reg, err := n.FW.Register("test", "system", "caller")
	if err != nil {
		t.Fatal(err)
	}
	defer n.FW.Unregister(reg)
	ctx := agent.NewContext(n.FW, reg, briefcase.New(), nil, nil)
	req := briefcase.New()
	build(req)
	// Meet returns the error-report briefcase together with a non-nil
	// error for remote failures; the tests inspect the reply's kind.
	resp, err := ctx.Meet(target, req, 10*time.Second)
	if resp == nil {
		t.Fatalf("meet %s: %v", target, err)
	}
	return resp
}

func TestProgramName(t *testing.T) {
	tests := []struct {
		name    string
		source  string
		want    string
		wantErr bool
	}{
		{"directive first line", "// program: hello\nint main(){}", "hello", false},
		{"directive with spaces", "  // program:   spaced  \n", "spaced", false},
		{"directive later", "int x;\n// program: later\n", "later", false},
		{"no directive", "int main(){}", "", true},
		{"empty name", "// program:\n", "", true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := services.ProgramName(tt.source)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if got != tt.want {
				t.Errorf("ProgramName = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestCompileBinaryDeterministic(t *testing.T) {
	src := "// program: tool\nbody"
	a, err := services.CompileBinary(src, "archA")
	if err != nil {
		t.Fatal(err)
	}
	b, err := services.CompileBinary(src, "archA")
	if err != nil {
		t.Fatal(err)
	}
	if a.Manifest() != b.Manifest() || string(a.Payload) != string(b.Payload) {
		t.Error("same source, different binaries")
	}
	c, _ := services.CompileBinary(src, "archB")
	if string(a.Payload) == string(c.Payload) {
		t.Error("different arch, same payload")
	}
	if _, err := services.CompileBinary("no directive", "a"); err == nil {
		t.Error("directiveless source compiled")
	}
}

// fileServices speak one protocol: ag_fs over a volatile map,
// ag_cabinet over the host's durable cabinet.
var fileServices = []string{"ag_fs", "ag_cabinet"}

func TestAgFSPutGetListDel(t *testing.T) {
	for _, svc := range fileServices {
		t.Run(svc, func(t *testing.T) {
			n := newNode(t)
			put := func(path, data string) {
				resp := rpc(t, n, svc, func(req *briefcase.Briefcase) {
					req.SetString(services.FolderOp, "put")
					req.SetString(services.FolderPath, path)
					req.Ensure(services.FolderData).AppendString(data)
				})
				if firewall.Kind(resp) == firewall.KindError {
					msg, _ := resp.GetString(briefcase.FolderSysError)
					t.Fatalf("put %s: %s", path, msg)
				}
			}
			put("/etc/motd", "hello fs")
			put("/etc/hosts", "localhost")
			put("/var/log", "x")

			resp := rpc(t, n, svc, func(req *briefcase.Briefcase) {
				req.SetString(services.FolderOp, "get")
				req.SetString(services.FolderPath, "/etc/motd")
			})
			f, err := resp.Folder(services.FolderData)
			if err != nil {
				t.Fatal(err)
			}
			if got := f.Strings()[0]; got != "hello fs" {
				t.Errorf("get = %q", got)
			}

			resp = rpc(t, n, svc, func(req *briefcase.Briefcase) {
				req.SetString(services.FolderOp, "list")
				req.SetString(services.FolderPath, "/etc/")
			})
			f, _ = resp.Folder(services.FolderData)
			if got := f.Strings(); !slices.Equal(slices.Sorted(slices.Values(got)), []string{"/etc/hosts", "/etc/motd"}) {
				t.Errorf("list /etc/ = %v", got)
			}

			resp = rpc(t, n, svc, func(req *briefcase.Briefcase) {
				req.SetString(services.FolderOp, "del")
				req.SetString(services.FolderPath, "/etc/motd")
			})
			if firewall.Kind(resp) == firewall.KindError {
				t.Fatal("del failed")
			}
			resp = rpc(t, n, svc, func(req *briefcase.Briefcase) {
				req.SetString(services.FolderOp, "get")
				req.SetString(services.FolderPath, "/etc/motd")
			})
			if firewall.Kind(resp) != firewall.KindError {
				t.Error("get after del succeeded")
			}
		})
	}
}

func TestAgFSErrors(t *testing.T) {
	n := newNode(t)
	for _, tt := range []struct {
		name  string
		build func(*briefcase.Briefcase)
		want  error
	}{
		{"unknown op", func(r *briefcase.Briefcase) { r.SetString(services.FolderOp, "chmod") }, services.ErrUnknownOp},
		{"get missing", func(r *briefcase.Briefcase) {
			r.SetString(services.FolderOp, "get")
			r.SetString(services.FolderPath, "/nope")
		}, services.ErrNoSuchFile},
		{"put without data", func(r *briefcase.Briefcase) {
			r.SetString(services.FolderOp, "put")
			r.SetString(services.FolderPath, "/x")
		}, services.ErrBadRequest},
		{"put without path", func(r *briefcase.Briefcase) {
			r.SetString(services.FolderOp, "put")
			r.Ensure(services.FolderData).AppendString("d")
		}, services.ErrBadRequest},
		{"del missing", func(r *briefcase.Briefcase) {
			r.SetString(services.FolderOp, "del")
			r.SetString(services.FolderPath, "/nope")
		}, services.ErrNoSuchFile},
	} {
		t.Run(tt.name, func(t *testing.T) {
			for _, svc := range fileServices {
				resp := rpc(t, n, svc, tt.build)
				rerr, ok := firewall.RemoteErrorFrom(resp)
				if !ok {
					t.Errorf("%s: no error reply", svc)
					continue
				}
				if !errors.Is(rerr, tt.want) || !strings.HasPrefix(rerr.Error(), svc+": ") {
					t.Errorf("%s: error %q, want %v under the %s: prefix", svc, rerr, tt.want, svc)
				}
			}
		})
	}
}

func TestAgExecCompile(t *testing.T) {
	n := newNode(t)
	src := "// program: crunch\nwork work"
	resp := rpc(t, n, "ag_exec", func(req *briefcase.Briefcase) {
		req.SetString(services.FolderOp, "compile")
		req.SetString(briefcase.FolderCode, src)
		req.SetString(vm.FolderArch, n.Arch)
		req.SetString(vm.FolderCompiler, "gcc")
	})
	if firewall.Kind(resp) == firewall.KindError {
		msg, _ := resp.GetString(briefcase.FolderSysError)
		t.Fatalf("compile: %s", msg)
	}
	bins, err := vm.UnpackBinaries(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 1 || bins[0].Name != "crunch" || bins[0].Arch != n.Arch {
		t.Errorf("compiled: %+v", bins)
	}
	// The compiled image matches what deployment-time compilation yields.
	want, _ := services.CompileBinary(src, n.Arch)
	if string(bins[0].Payload) != string(want.Payload) {
		t.Error("compiler output is not deterministic across sites")
	}
}

func TestAgExecExec(t *testing.T) {
	n := newNode(t)
	ran := make(chan string, 1)
	img := vm.SyntheticImage("probe", n.Arch, "1.0", 512)
	n.Binaries.Deploy(vm.Binary{
		Name: "probe", Arch: n.Arch, Version: "1.0", Payload: img,
		Handler: func(ctx *agent.Context) error {
			arg, _ := ctx.Briefcase().GetString("INPUT")
			ctx.Briefcase().SetString("OUTPUT", "ran:"+arg)
			select {
			case ran <- arg:
			default:
			}
			return nil
		},
	})
	resp := rpc(t, n, "ag_exec", func(req *briefcase.Briefcase) {
		req.SetString(services.FolderOp, "exec")
		req.SetString("INPUT", "42")
		vm.PackBinaries(req, vm.Binary{Name: "probe", Arch: n.Arch, Version: "1.0", Payload: img})
	})
	if firewall.Kind(resp) == firewall.KindError {
		msg, _ := resp.GetString(briefcase.FolderSysError)
		t.Fatalf("exec: %s", msg)
	}
	out, _ := resp.GetString("OUTPUT")
	if out != "ran:42" {
		t.Errorf("OUTPUT = %q", out)
	}
	select {
	case <-ran:
	default:
		t.Error("handler never ran")
	}
}

func TestAgExecExecRejectsTamperedBinary(t *testing.T) {
	n := newNode(t)
	img := vm.SyntheticImage("probe", n.Arch, "1.0", 512)
	n.Binaries.Deploy(vm.Binary{
		Name: "probe", Arch: n.Arch, Version: "1.0", Payload: img,
		Handler: func(*agent.Context) error { return nil },
	})
	evil := append([]byte{}, img...)
	evil[0] ^= 1
	resp := rpc(t, n, "ag_exec", func(req *briefcase.Briefcase) {
		req.SetString(services.FolderOp, "exec")
		vm.PackBinaries(req, vm.Binary{Name: "probe", Arch: n.Arch, Version: "1.0", Payload: evil})
	})
	if firewall.Kind(resp) != firewall.KindError {
		t.Fatal("tampered binary executed")
	}
	msg, _ := resp.GetString(briefcase.FolderSysError)
	if !strings.Contains(msg, "differs") {
		t.Errorf("error = %q", msg)
	}
}

func TestAgExecExecWrongArch(t *testing.T) {
	n := newNode(t)
	resp := rpc(t, n, "ag_exec", func(req *briefcase.Briefcase) {
		req.SetString(services.FolderOp, "exec")
		vm.PackBinaries(req, vm.Binary{Name: "probe", Arch: "vax-vms", Version: "1", Payload: []byte("x")})
	})
	if firewall.Kind(resp) != firewall.KindError {
		t.Error("wrong-arch exec succeeded")
	}
}

func TestAgCronActivatesTarget(t *testing.T) {
	n := newNode(t)
	got := make(chan struct{}, 8)
	n.Programs.Register("tickee", func(ctx *agent.Context) error {
		for {
			if _, err := ctx.Await(0); err != nil {
				return nil
			}
			got <- struct{}{}
		}
	})
	reg, err := n.VM.Launch("system", "tickee", "tickee", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp := rpc(t, n, "ag_cron", func(req *briefcase.Briefcase) {
		req.SetString(services.FolderPath, reg.URI().String())
		req.SetInt(services.FolderInterval, int64(10*time.Millisecond))
		req.SetInt(services.FolderCount, 3)
	})
	if firewall.Kind(resp) == firewall.KindError {
		msg, _ := resp.GetString(briefcase.FolderSysError)
		t.Fatalf("cron: %s", msg)
	}
	for i := 0; i < 3; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 3 activations arrived", i)
		}
	}
}

func TestAgCronValidation(t *testing.T) {
	n := newNode(t)
	for _, tt := range []struct {
		name  string
		build func(*briefcase.Briefcase)
	}{
		{"no target", func(r *briefcase.Briefcase) {
			r.SetInt(services.FolderInterval, 1000)
			r.SetInt(services.FolderCount, 1)
		}},
		{"bad interval", func(r *briefcase.Briefcase) {
			r.SetString(services.FolderPath, "x")
			r.SetInt(services.FolderInterval, -5)
			r.SetInt(services.FolderCount, 1)
		}},
		{"bad count", func(r *briefcase.Briefcase) {
			r.SetString(services.FolderPath, "x")
			r.SetInt(services.FolderInterval, 1000)
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			resp := rpc(t, n, "ag_cron", tt.build)
			if firewall.Kind(resp) != firewall.KindError {
				t.Error("no error reply")
			}
		})
	}
}

func TestAgMonitorQuery(t *testing.T) {
	n := newNode(t)
	handler, events := services.NewAgMonitor(4)
	n.Programs.Register("ag_monitor", handler)
	if _, err := n.VM.Launch("system", "ag_monitor", "ag_monitor", nil); err != nil {
		t.Fatal(err)
	}
	// A report (one-way).
	reg, err := n.FW.Register("test", "system", "reporter")
	if err != nil {
		t.Fatal(err)
	}
	ctx := agent.NewContext(n.FW, reg, briefcase.New(), nil, nil)
	rep := briefcase.New()
	rep.SetString(briefcase.FolderStatus, "halfway")
	rep.SetString("HOST", "h1")
	if err := ctx.Activate("ag_monitor", rep); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev.Status != "halfway" || ev.Host != "h1" {
			t.Errorf("event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no monitor event")
	}
	// Query returns the accumulated status lines.
	resp := rpc(t, n, "ag_monitor", func(req *briefcase.Briefcase) {
		req.SetString(services.FolderOp, "query")
	})
	f, err := resp.Folder(briefcase.FolderStatus)
	if err != nil || !strings.Contains(strings.Join(f.Strings(), ","), "halfway") {
		t.Errorf("query = %v, %v", f, err)
	}
}
