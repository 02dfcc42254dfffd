package core

import (
	"errors"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/vm"
)

// vmLoader is one VM kind as the two-host cases drive it.
type vmLoader struct {
	name   string // the VM's registration name
	deploy func(s *System, program string, h vm.Handler)
	launch func(n *Node, program string) (*firewall.Registration, error)
	close  func(n *Node) error
	// refused builds a transfer the destination's loader refuses.
	refused func(s *System, dest *Node) *briefcase.Briefcase
}

var vmLoaders = []vmLoader{
	{
		name:   "vm_go",
		deploy: func(s *System, program string, h vm.Handler) { s.DeployProgram(program, h) },
		launch: func(n *Node, program string) (*firewall.Registration, error) {
			return n.VM.Launch("system", program, program, nil)
		},
		close: func(n *Node) error { return n.VM.Close() },
		refused: func(*System, *Node) *briefcase.Briefcase {
			bc := briefcase.New()
			bc.SetString(briefcase.FolderCode, "ghost")
			return bc
		},
	},
	{
		name: "vm_bin",
		deploy: func(s *System, program string, h vm.Handler) {
			s.DeployBinary(program, "1.0", 4<<10, func(*Node) vm.Handler { return h })
		},
		launch: func(n *Node, program string) (*firewall.Registration, error) {
			return n.BinVM.Launch("system", program, program, nil)
		},
		close: func(n *Node) error { return n.BinVM.Close() },
		refused: func(s *System, dest *Node) *briefcase.Briefcase {
			// Signed by a trusted principal, but not deployed there.
			bc := briefcase.New()
			vm.PackBinaries(bc, vm.Binary{Name: "ghost", Arch: dest.Arch, Version: "1.0", Payload: []byte("ghost image")})
			firewall.SignCore(bc, s.SystemPrincipal)
			return bc
		},
	},
}

// TestLoadersShareRuntime runs both loaders through the runtime they
// share, each case on two hosts: a move, a spawn whose instance number
// comes back to the parent, an arrival the loader refuses, and Close
// while an agent runs.
func TestLoadersShareRuntime(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, l vmLoader, s *System, n1, n2 *Node)
	}{
		{"move", func(t *testing.T, l vmLoader, s *System, n1, _ *Node) {
			at := make(chan string, 1)
			l.deploy(s, "mover", func(ctx *agent.Context) error {
				if ctx.Host() == "h2" {
					at <- ctx.Host()
					return nil
				}
				return ctx.Go("tacoma://h2//" + l.name)
			})
			if _, err := l.launch(n1, "mover"); err != nil {
				t.Fatal(err)
			}
			select {
			case <-at:
			case <-time.After(5 * time.Second):
				t.Fatal("the agent never ran on h2")
			}
		}},
		{"spawn", func(t *testing.T, l vmLoader, s *System, n1, _ *Node) {
			reported, actual := make(chan uint64, 1), make(chan uint64, 1)
			l.deploy(s, "spawner", func(ctx *agent.Context) error {
				if ctx.Host() == "h2" {
					actual <- ctx.URI().Instance
					return nil
				}
				inst, err := ctx.Spawn("tacoma://h2//" + l.name)
				if err != nil {
					t.Errorf("spawn: %v", err)
				}
				reported <- inst
				return nil
			})
			if _, err := l.launch(n1, "spawner"); err != nil {
				t.Fatal(err)
			}
			var got [2]uint64
			for i, ch := range []chan uint64{reported, actual} {
				select {
				case got[i] = <-ch:
				case <-time.After(5 * time.Second):
					t.Fatal("spawn stalled")
				}
			}
			if got[0] == 0 || got[0] != got[1] {
				t.Errorf("parent was told instance %x, the child is %x", got[0], got[1])
			}
		}},
		{"reject", func(t *testing.T, l vmLoader, s *System, n1, n2 *Node) {
			rejected := n2.FW.Telemetry().Registry().Counter("vm.rejected", "host", "h2", "vm", l.name)
			before := rejected.Value()
			sender, err := n1.FW.Register("test", "system", "sender")
			if err != nil {
				t.Fatal(err)
			}
			bc := l.refused(s, n2)
			bc.SetString(firewall.FolderKind, firewall.KindTransfer)
			bc.SetString(briefcase.FolderSysTarget, "tacoma://h2//"+l.name)
			bc.SetString(firewall.FolderMsgID, "m-refused")
			if err := n1.FW.Send(sender.GlobalURI(), bc); err != nil {
				t.Fatal(err)
			}
			rep, err := sender.Recv(5 * time.Second)
			if err != nil {
				t.Fatalf("no rejection report: %v", err)
			}
			if firewall.Kind(rep) != firewall.KindError {
				t.Errorf("report kind = %q, want %q", firewall.Kind(rep), firewall.KindError)
			}
			if id, _ := rep.GetString(firewall.FolderReplyTo); id != "m-refused" {
				t.Errorf("report %s = %q, want the transfer's id", firewall.FolderReplyTo, id)
			}
			if d := rejected.Value() - before; d != 1 {
				t.Errorf("vm.rejected rose by %d, want 1", d)
			}
		}},
		{"close", func(t *testing.T, l vmLoader, s *System, n1, n2 *Node) {
			arrived, stopped := make(chan struct{}, 1), make(chan error, 1)
			l.deploy(s, "sitter", func(ctx *agent.Context) error {
				if ctx.Host() != "h2" {
					return ctx.Go("tacoma://h2//" + l.name)
				}
				arrived <- struct{}{}
				_, err := ctx.Await(0)
				stopped <- err
				return err
			})
			if _, err := l.launch(n1, "sitter"); err != nil {
				t.Fatal(err)
			}
			select {
			case <-arrived:
			case <-time.After(5 * time.Second):
				t.Fatal("the agent never ran on h2")
			}
			if err := l.close(n2); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-stopped:
				if !errors.Is(err, firewall.ErrKilled) {
					t.Errorf("agent stopped with %v, want ErrKilled", err)
				}
			default:
				t.Fatal("Close returned with the agent still running")
			}
			if _, err := l.launch(n2, "sitter"); !errors.Is(err, vm.ErrClosed) {
				t.Errorf("launch after Close = %v, want ErrClosed", err)
			}
		}},
	}
	for _, l := range vmLoaders {
		for _, c := range cases {
			t.Run(l.name+"/"+c.name, func(t *testing.T) {
				s := newSystem(t, NodeOptions{NoCVM: true}, "h1", "h2")
				n1, _ := s.Node("h1")
				n2, _ := s.Node("h2")
				c.run(t, l, s, n1, n2)
			})
		}
	}
}
