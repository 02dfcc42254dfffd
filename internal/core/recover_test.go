package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/services"
)

// putCheckpoint stores raw bytes at the node's ag_fs path.
func putCheckpoint(t *testing.T, n *Node, path string, data []byte) {
	t.Helper()
	reg, err := n.FW.Register("test", "system", "ckpt-writer")
	if err != nil {
		t.Fatal(err)
	}
	defer n.FW.Unregister(reg)
	ctx := agent.NewContext(n.FW, reg, briefcase.New(), nil, nil)
	req := briefcase.New()
	req.SetString(services.FolderOp, "put")
	req.SetString(services.FolderPath, path)
	req.Ensure(services.FolderData).Append(data)
	if _, err := ctx.MeetDirect("ag_fs", req, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverLaunchesFromSnapshot(t *testing.T) {
	s := newSystem(t, NodeOptions{}, "home")
	n, _ := s.Node("home")

	got := make(chan string, 1)
	n.Programs.Register("resumer", func(ctx *agent.Context) error {
		v, _ := ctx.Briefcase().GetString("STATE")
		got <- v
		return nil
	})
	snap := briefcase.New()
	snap.SetString("STATE", "made it to phase 3")
	putCheckpoint(t, n, "/ckpt/x", snap.Encode())

	if _, err := n.Recover("system", "resumed", "resumer", "/ckpt/x"); err != nil {
		t.Fatalf("recover: %v", err)
	}
	select {
	case v := <-got:
		if v != "made it to phase 3" {
			t.Errorf("recovered state = %q", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recovered agent never ran")
	}
}

func TestRecoverErrors(t *testing.T) {
	s := newSystem(t, NodeOptions{}, "home")
	n, _ := s.Node("home")
	n.Programs.Register("resumer", func(ctx *agent.Context) error { return nil })

	// Missing checkpoint: the store's typed verdict survives the wire.
	if _, err := n.Recover("system", "x", "resumer", "/ckpt/none"); !errors.Is(err, services.ErrNoSuchFile) {
		t.Errorf("missing checkpoint: err = %v, want services.ErrNoSuchFile", err)
	}
	// Corrupt snapshot bytes.
	putCheckpoint(t, n, "/ckpt/bad", []byte("not a briefcase"))
	if _, err := n.Recover("system", "x", "resumer", "/ckpt/bad"); err == nil ||
		!strings.Contains(err.Error(), "magic") && !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("corrupt checkpoint: %v", err)
	}
	// Unknown program.
	snap := briefcase.New()
	putCheckpoint(t, n, "/ckpt/ok", snap.Encode())
	if _, err := n.Recover("system", "x", "ghost-program", "/ckpt/ok"); err == nil {
		t.Error("unknown program accepted")
	}
}
