package core

import (
	"fmt"
	"testing"
	"time"

	"tax/internal/briefcase"
	"tax/internal/cabinet"
	"tax/internal/simnet"
)

// TestWithRelayForwardsAcrossChain boots a 3-hop routed topology with
// NodeOptions.Relay — origin, relay, destination, each host's
// next-hop table one step toward the destination — and proves a
// briefcase sent from the origin is forwarded through the relay to a
// mailbox on the far host, with the relay's zero-copy counter ticking.
func TestWithRelayForwardsAcrossChain(t *testing.T) {
	s, err := NewSystem(simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	next := map[string]string{"a": "b", "b": "c", "c": "c"}
	for _, name := range []string{"a", "b", "c"} {
		self := name
		hop := next[name]
		if _, err := s.AddNode(name, NodeOptions{
			NoServices: true,
			NoCVM:      true,
			Relay:      true,
			Resolve: func(host string, _ int) (string, error) {
				if host == self {
					return self, nil
				}
				return hop, nil
			},
		}); err != nil {
			t.Fatalf("AddNode(%s): %v", name, err)
		}
	}

	na, _ := s.Node("a")
	nc, _ := s.Node("c")
	src, err := na.FW.Register("vm", "system", "src")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := nc.FW.Register("vm", "system", "dst")
	if err != nil {
		t.Fatal(err)
	}

	bc := briefcase.New()
	bc.SetString("BODY", "routed through b")
	bc.SetString(briefcase.FolderSysTarget, "tacoma://c/system/dst")
	if err := na.FW.Send(src.GlobalURI(), bc); err != nil {
		t.Fatalf("send: %v", err)
	}
	got, err := dst.Recv(5 * time.Second)
	if err != nil {
		t.Fatalf("recv at c: %v", err)
	}
	if body, _ := got.GetString("BODY"); body != "routed through b" {
		t.Fatalf("delivered body = %q", body)
	}

	nb, _ := s.Node("b")
	relayed := nb.FW.Telemetry().Registry().Counter("fw.relayed", "host", "b").Value()
	if relayed != 1 {
		t.Fatalf("relay b fw.relayed = %d, want 1 (frame must take the zero-copy path)", relayed)
	}
}

// TestWithGroupCommitCoalescesFsyncs boots a node with group commit on
// and drives its cabinet through CommitMany: the coalesce window must
// cap fsyncs well under the transaction count, and every record must be
// live afterwards.
func TestWithGroupCommitCoalescesFsyncs(t *testing.T) {
	s, err := NewSystem(simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	n, err := s.AddNode("h1", NodeOptions{
		NoServices:    true,
		NoCVM:         true,
		GroupCommit:   true,
		GroupMaxTxns:  16,
		SnapshotEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	const txns = 48
	stream := make([][]cabinet.Op, txns)
	for i := range stream {
		key := fmt.Sprintf("gc/%02d", i)
		stream[i] = []cabinet.Op{{Key: key, Value: []byte("v:" + key)}}
	}
	before := n.Disk.Syncs()
	if err := n.Cabinet.CommitMany(stream); err != nil {
		t.Fatalf("CommitMany: %v", err)
	}
	fsyncs := n.Disk.Syncs() - before
	if fsyncs != txns/16 {
		t.Fatalf("fsyncs = %d for %d txns at window 16, want %d", fsyncs, txns, txns/16)
	}
	if n.Cabinet.Len() != txns {
		t.Fatalf("cabinet holds %d keys, want %d", n.Cabinet.Len(), txns)
	}
}
