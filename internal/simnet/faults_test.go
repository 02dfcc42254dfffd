package simnet

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

// fixedInjector returns the same decision for every transfer.
type fixedInjector struct{ dec Decision }

func (f fixedInjector) Decide(from, to string, now time.Duration, size int) Decision {
	return f.dec
}

// collector records deliveries on a host.
type collector struct {
	mu   sync.Mutex
	msgs [][]byte
	got  chan struct{}
}

func newCollector(h *Host) *collector {
	c := &collector{got: make(chan struct{}, 64)}
	h.SetHandler(func(_ string, payload []byte) {
		c.mu.Lock()
		c.msgs = append(c.msgs, append([]byte(nil), payload...))
		c.mu.Unlock()
		c.got <- struct{}{}
	})
	return c
}

func (c *collector) wait(t *testing.T, n int) [][]byte {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-c.got:
		case <-time.After(2 * time.Second):
			t.Fatalf("delivery %d/%d never arrived", i+1, n)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.msgs...)
}

// TestPartitionEdges covers the topology-fault edge cases table-style:
// self-partition, unknown hosts, double partition and double heal must
// all be safe no-ops with the documented semantics.
func TestPartitionEdges(t *testing.T) {
	tests := []struct {
		name  string
		apply func(n *Network)
		// wantCut is whether a→b is cut after apply.
		wantCut bool
	}{
		{"self partition is a no-op", func(n *Network) { n.Partition("a", "a") }, false},
		{"partition cuts both directions", func(n *Network) { n.Partition("a", "b") }, true},
		{"double partition is idempotent", func(n *Network) { n.Partition("a", "b"); n.Partition("b", "a") }, true},
		{"heal restores", func(n *Network) { n.Partition("a", "b"); n.Heal("a", "b") }, false},
		{"double heal is safe", func(n *Network) { n.Partition("a", "b"); n.Heal("a", "b"); n.Heal("a", "b") }, false},
		{"heal of never-partitioned pair is safe", func(n *Network) { n.Heal("a", "b") }, false},
		{"partition of unknown host only cuts that name", func(n *Network) { n.Partition("a", "ghost") }, false},
		{"heal of unknown host is safe", func(n *Network) { n.Heal("ghost", "phantom") }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n, a, b := newPair(t, LAN100)
			b.SetHandler(func(string, []byte) {})
			tt.apply(n)
			err := a.Send("b", []byte("x"))
			if tt.wantCut {
				if !errors.Is(err, ErrPartitioned) {
					t.Errorf("send err = %v, want ErrPartitioned", err)
				}
				if !n.Partitioned("a", "b") || !n.Partitioned("b", "a") {
					t.Error("Partitioned() not symmetric")
				}
			} else {
				if err != nil {
					t.Errorf("send err = %v, want nil", err)
				}
				if n.Partitioned("a", "b") {
					t.Error("Partitioned(a,b) = true, want false")
				}
			}
		})
	}
	t.Run("self send unaffected by self partition", func(t *testing.T) {
		n, a, _ := newPair(t, LAN100)
		a.SetHandler(func(string, []byte) {})
		n.Partition("a", "a")
		if n.Partitioned("a", "a") {
			t.Error("self pair marked partitioned")
		}
		if err := a.Send("a", []byte("loop")); err != nil {
			t.Errorf("loopback send: %v", err)
		}
	})
}

// TestCrashAndRestart: a crashed host's transport fails in both
// directions with ErrHostDown, its undelivered inbox is discarded, and a
// restart restores connectivity with an empty inbox.
func TestCrashAndRestart(t *testing.T) {
	n, a, b := newPair(t, LAN100)
	cb := newCollector(b)

	if n.Crashed("b") {
		t.Fatal("fresh host reports crashed")
	}
	n.Crash("b")
	if !n.Crashed("b") {
		t.Fatal("Crashed(b) = false after Crash")
	}
	if err := a.Send("b", []byte("to-down")); !errors.Is(err, ErrHostDown) {
		t.Errorf("send to crashed host err = %v, want ErrHostDown", err)
	}
	if err := b.Send("a", []byte("from-down")); !errors.Is(err, ErrHostDown) {
		t.Errorf("send from crashed host err = %v, want ErrHostDown", err)
	}
	// Idempotent edges: double crash, crash of unknown host.
	n.Crash("b")
	n.Crash("ghost")
	if n.Crashed("ghost") {
		t.Error("unknown host reports crashed")
	}

	n.Restart("b")
	n.Restart("b") // double restart is safe
	if n.Crashed("b") {
		t.Error("Crashed(b) = true after Restart")
	}
	if err := a.Send("b", []byte("back")); err != nil {
		t.Fatalf("send after restart: %v", err)
	}
	got := cb.wait(t, 1)
	if string(got[len(got)-1]) != "back" {
		t.Errorf("post-restart delivery = %q", got[len(got)-1])
	}
}

// TestCrashDiscardsQueuedInbox: messages sitting in a host's inbox when
// it crashes are lost, like RAM on power failure.
func TestCrashDiscardsQueuedInbox(t *testing.T) {
	n, a, b := newPair(t, LAN100)
	// No handler: deliveries pile up in the queue until one is set.
	// Stop the dispatcher from consuming by crashing right after send.
	if err := a.Send("b", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	n.Crash("b")
	n.Restart("b")
	cb := newCollector(b)
	if err := a.Send("b", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	got := cb.wait(t, 1)
	// Only "fresh" must arrive; "doomed" may or may not have been
	// dispatched before the crash drained the queue (the dispatcher
	// races the crash), but it must not arrive after the restart.
	if string(got[len(got)-1]) != "fresh" {
		t.Errorf("first post-restart delivery = %q, want fresh", got[len(got)-1])
	}
}

// TestInjectorDecisions drives each Decision field through a real
// transfer and asserts its observable effect.
func TestInjectorDecisions(t *testing.T) {
	payload := []byte("the quick brown fox")

	t.Run("pass-through", func(t *testing.T) {
		n, a, b := newPair(t, LAN100)
		n.SetInjector(fixedInjector{})
		cb := newCollector(b)
		if err := a.Send("b", payload); err != nil {
			t.Fatal(err)
		}
		got := cb.wait(t, 1)
		if !bytes.Equal(got[0], payload) {
			t.Errorf("payload mangled: %q", got[0])
		}
	})

	t.Run("drop returns typed error and charges the link", func(t *testing.T) {
		n, a, b := newPair(t, LAN100)
		n.SetInjector(fixedInjector{dec: Decision{Drop: true}})
		cb := newCollector(b)
		before := a.Clock().Now()
		err := a.Send("b", payload)
		if !errors.Is(err, ErrDropped) {
			t.Fatalf("err = %v, want ErrDropped", err)
		}
		if a.Clock().Now() <= before {
			t.Error("dropped send did not charge the sender's clock")
		}
		select {
		case <-cb.got:
			t.Error("dropped message was delivered")
		case <-time.After(50 * time.Millisecond):
		}
	})

	t.Run("duplicate delivers twice", func(t *testing.T) {
		n, a, b := newPair(t, LAN100)
		n.SetInjector(fixedInjector{dec: Decision{Duplicate: true}})
		cb := newCollector(b)
		if err := a.Send("b", payload); err != nil {
			t.Fatal(err)
		}
		got := cb.wait(t, 2)
		if !bytes.Equal(got[0], payload) || !bytes.Equal(got[1], payload) {
			t.Errorf("duplicate deliveries differ: %q %q", got[0], got[1])
		}
	})

	t.Run("delay pushes arrival by exactly the injected jitter", func(t *testing.T) {
		const jitter = 7 * time.Millisecond
		n, a, _ := newPair(t, LAN100)
		base, err := a.SendTimed("b", payload)
		if err != nil {
			t.Fatal(err)
		}
		n.SetInjector(fixedInjector{dec: Decision{Delay: jitter}})
		delayed, err := a.SendTimed("b", payload)
		if err != nil {
			t.Fatal(err)
		}
		// The second transfer serializes right after the first: without
		// jitter it would arrive exactly one transfer-time later.
		tx := LAN100.TransferTime(len(payload))
		if want := base + tx + jitter; delayed != want {
			t.Errorf("delayed arrival = %v, want %v (base %v + tx %v + jitter %v)",
				delayed, want, base, tx, jitter)
		}
	})

	t.Run("corrupt flips deterministic bytes", func(t *testing.T) {
		n, a, b := newPair(t, LAN100)
		n.SetInjector(fixedInjector{dec: Decision{Corrupt: true}})
		cb := newCollector(b)
		if err := a.Send("b", payload); err != nil {
			t.Fatal(err)
		}
		got := cb.wait(t, 1)
		if bytes.Equal(got[0], payload) {
			t.Error("corrupted payload arrived intact")
		}
		want := append([]byte(nil), payload...)
		want[len(want)/2] ^= 0xA5
		want[len(want)-1] ^= 0x5A
		if !bytes.Equal(got[0], want) {
			t.Errorf("corruption not deterministic: got %q want %q", got[0], want)
		}
		// The sender's copy must be untouched (payload is copied).
		if payload[len(payload)-1] != byte("the quick brown fox"[len(payload)-1]) {
			t.Error("sender's payload mutated")
		}
	})

	t.Run("loopback bypasses the injector", func(t *testing.T) {
		n, a, _ := newPair(t, LAN100)
		n.SetInjector(fixedInjector{dec: Decision{Drop: true}})
		ca := newCollector(a)
		if err := a.Send("a", payload); err != nil {
			t.Fatalf("loopback send under drop-all injector: %v", err)
		}
		got := ca.wait(t, 1)
		if !bytes.Equal(got[0], payload) {
			t.Errorf("loopback payload mangled: %q", got[0])
		}
	})
}

// TestSendOwnedRefusals holds SendOwned to its contract — it keeps
// payload if and only if it returns nil — on every way a send is
// refused: each returns an error, and no delivery aliases the buffer,
// which is the caller's again to retry or reuse. A closed receiver once
// took about half the sends to it: the inbox select chose at random
// between the queue and the close.
func TestSendOwnedRefusals(t *testing.T) {
	type setup func(n *Network, a, b *Host)
	none := func(*Network, *Host, *Host) {}
	tests := []struct {
		name   string
		to     string
		refuse setup
		heal   setup // nil: a→b carries no marker afterwards
		want   error
	}{
		{"closed sender", "b", func(_ *Network, a, _ *Host) { _ = a.Close() }, nil, ErrClosed},
		{"closed receiver", "b", func(_ *Network, _, b *Host) { _ = b.Close() }, nil, ErrClosed},
		{"unknown host", "ghost", none, none, ErrUnknownHost},
		{"crashed", "b", func(n *Network, _, _ *Host) { n.Crash("b") }, func(n *Network, _, _ *Host) { n.Restart("b") }, ErrHostDown},
		{"partitioned", "b", func(n *Network, _, _ *Host) { n.Partition("a", "b") }, func(n *Network, _, _ *Host) { n.Heal("a", "b") }, ErrPartitioned},
		{"dropped", "b", func(n *Network, _, _ *Host) { n.SetInjector(fixedInjector{dec: Decision{Drop: true}}) },
			func(n *Network, _, _ *Host) { n.SetInjector(nil) }, ErrDropped},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n, a, b := newPair(t, LAN100)
			var mu sync.Mutex
			var refused [][]byte
			aliased := 0
			marker := make(chan struct{}, 1)
			b.SetHandler(func(_ string, p []byte) {
				mu.Lock()
				defer mu.Unlock()
				for _, r := range refused {
					if &p[0] == &r[0] {
						aliased++
					}
				}
				if string(p) == "marker" {
					marker <- struct{}{}
				}
			})
			// First contact: b's inbox for a exists before the refusals.
			if err := a.Send("b", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			tt.refuse(n, a, b)
			for i := 0; i < 200; i++ {
				buf := []byte{byte(i), 1}
				mu.Lock()
				refused = append(refused, buf)
				mu.Unlock()
				if err := a.SendOwned(tt.to, buf); !errors.Is(err, tt.want) {
					t.Fatalf("send %d: err = %v, want %v", i, err, tt.want)
				}
			}
			if tt.heal != nil {
				// Per-link FIFO: anything refused but delivered arrives first.
				tt.heal(n, a, b)
				if err := a.Send("b", []byte("marker")); err != nil {
					t.Fatal(err)
				}
				select {
				case <-marker:
				case <-time.After(2 * time.Second):
					t.Fatal("marker never delivered")
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if aliased != 0 {
				t.Errorf("%d deliveries alias a refused buffer", aliased)
			}
		})
	}
}

// TestTransferTimeBoundaries pins the cost-model edges table-style.
func TestTransferTimeBoundaries(t *testing.T) {
	tests := []struct {
		name string
		p    Profile
		size int
		want time.Duration
	}{
		{"zero size pays only overhead", Profile{Bandwidth: 1000, MsgOverhead: 3 * time.Millisecond}, 0, 3 * time.Millisecond},
		{"zero bandwidth is instant", Profile{Latency: time.Millisecond}, 1 << 20, 0},
		{"zero everything is free", Profile{}, 0, 0},
		{"zero bandwidth keeps overhead", Profile{MsgOverhead: time.Millisecond}, 4096, time.Millisecond},
		{"bandwidth scales linearly", Profile{Bandwidth: 1 << 20}, 1 << 20, time.Second},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.TransferTime(tt.size); got != tt.want {
				t.Errorf("TransferTime(%d) = %v, want %v", tt.size, got, tt.want)
			}
		})
	}
}
