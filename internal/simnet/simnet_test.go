package simnet

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestProfileTransferTime(t *testing.T) {
	p := Profile{Bandwidth: 1000, Latency: 10 * time.Millisecond, MsgOverhead: 5 * time.Millisecond}
	tests := []struct {
		size int
		want time.Duration
	}{
		{0, 5 * time.Millisecond},
		{1000, 5*time.Millisecond + time.Second},
		{500, 5*time.Millisecond + 500*time.Millisecond},
	}
	for _, tt := range tests {
		if got := p.TransferTime(tt.size); got != tt.want {
			t.Errorf("TransferTime(%d) = %v, want %v", tt.size, got, tt.want)
		}
	}
}

func TestProfileRoundTrip(t *testing.T) {
	p := Profile{Bandwidth: 1000, Latency: 10 * time.Millisecond, MsgOverhead: 0}
	// 100B request + 100B response: 2*latency + 2*(100/1000)s
	want := 20*time.Millisecond + 200*time.Millisecond
	if got := p.RoundTrip(100, 100); got != want {
		t.Errorf("RoundTrip = %v, want %v", got, want)
	}
}

func TestZeroBandwidthMeansInstant(t *testing.T) {
	p := Profile{Latency: time.Millisecond}
	if got := p.TransferTime(1 << 20); got != 0 {
		t.Errorf("zero-bandwidth transfer = %v, want 0", got)
	}
}

func newPair(t *testing.T, p Profile) (*Network, *Host, *Host) {
	t.Helper()
	n := New(p)
	t.Cleanup(func() { _ = n.Close() })
	a, err := n.AddHost("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.AddHost("b")
	if err != nil {
		t.Fatal(err)
	}
	return n, a, b
}

func TestSendChargesVirtualTime(t *testing.T) {
	p := Profile{Bandwidth: 1000, Latency: 100 * time.Millisecond, MsgOverhead: 10 * time.Millisecond}
	_, a, b := newPair(t, p)

	got := make(chan string, 1)
	var atDelivery time.Duration
	b.SetHandler(func(from string, payload []byte) {
		atDelivery = b.Clock().Now()
		got <- from + ":" + string(payload)
	})

	arrive, err := a.SendTimed("b", []byte("hello")) // 5 bytes
	if err != nil {
		t.Fatal(err)
	}
	// tx = 10ms + 5/1000 s = 15ms; arrive = 15ms + 100ms latency
	want := 115 * time.Millisecond
	if arrive != want {
		t.Errorf("arrive = %v, want %v", arrive, want)
	}
	// Sender is busy through serialization but not propagation.
	if a.Clock().Now() != 15*time.Millisecond {
		t.Errorf("sender clock = %v, want 15ms", a.Clock().Now())
	}
	select {
	case msg := <-got:
		if msg != "a:hello" {
			t.Errorf("delivered %q", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message never delivered")
	}
	// The receiver's clock reaches the arrival time as it takes the
	// delivery, not while the sender is still in Send.
	if atDelivery != want {
		t.Errorf("receiver clock at delivery = %v, want %v", atDelivery, want)
	}
	if b.Clock().Now() != want {
		t.Errorf("receiver clock = %v, want %v", b.Clock().Now(), want)
	}
}

func TestLinkSerialization(t *testing.T) {
	// Two back-to-back sends must queue on the link: the second transfer
	// starts when the first ends.
	p := Profile{Bandwidth: 1000, Latency: 0, MsgOverhead: 0}
	_, a, b := newPair(t, p)
	b.SetHandler(func(string, []byte) {})

	t1, err := a.SendTimed("b", make([]byte, 500)) // 0.5s
	if err != nil {
		t.Fatal(err)
	}
	t2, err := a.SendTimed("b", make([]byte, 500)) // finishes at 1.0s
	if err != nil {
		t.Fatal(err)
	}
	if t1 != 500*time.Millisecond || t2 != time.Second {
		t.Errorf("arrivals %v, %v; want 500ms, 1s", t1, t2)
	}
}

func TestLoopbackProfileUsed(t *testing.T) {
	n := New(Profile{Bandwidth: 1, Latency: time.Hour}) // absurdly slow default
	t.Cleanup(func() { _ = n.Close() })
	a, err := n.AddHost("a")
	if err != nil {
		t.Fatal(err)
	}
	a.SetHandler(func(string, []byte) {})
	arrive, err := a.SendTimed("a", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if arrive > time.Millisecond {
		t.Errorf("loopback send took %v of virtual time", arrive)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n, a, b := newPair(t, LAN100)
	b.SetHandler(func(string, []byte) {})
	n.Partition("a", "b")
	if err := a.Send("b", []byte("x")); !errors.Is(err, ErrPartitioned) {
		t.Errorf("partitioned send err = %v", err)
	}
	if err := b.Send("a", []byte("x")); !errors.Is(err, ErrPartitioned) {
		t.Errorf("partition not symmetric: %v", err)
	}
	n.Heal("a", "b")
	if err := a.Send("b", []byte("x")); err != nil {
		t.Errorf("send after heal: %v", err)
	}
}

func TestUnknownHostAndDuplicate(t *testing.T) {
	n, a, _ := newPair(t, LAN100)
	if err := a.Send("ghost", nil); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("unknown host err = %v", err)
	}
	if _, err := n.AddHost("a"); err == nil {
		t.Error("duplicate host accepted")
	}
	if _, err := n.AddHost(""); err == nil {
		t.Error("empty host name accepted")
	}
	if _, err := n.Host("ghost"); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("Host(ghost) err = %v", err)
	}
	if h, err := n.Host("a"); err != nil || h != a {
		t.Errorf("Host(a) = %v, %v", h, err)
	}
}

func TestClosedHostRejectsSend(t *testing.T) {
	_, a, b := newPair(t, LAN100)
	_ = a.Close()
	if err := a.Send("b", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("send from closed host err = %v", err)
	}
	_ = b // b remains open; network close covered elsewhere
}

func TestNetworkCloseStopsAll(t *testing.T) {
	n, a, _ := newPair(t, LAN100)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("send after network close err = %v", err)
	}
	if _, err := n.AddHost("c"); !errors.Is(err, ErrClosed) {
		t.Errorf("AddHost after close err = %v", err)
	}
}

func TestDeliveryOrderPerHost(t *testing.T) {
	_, a, b := newPair(t, LAN100)
	const count = 100
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	b.SetHandler(func(_ string, payload []byte) {
		mu.Lock()
		got = append(got, int(payload[0])<<8|int(payload[1]))
		if len(got) == count {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < count; i++ {
		if err := a.Send("b", []byte{byte(i >> 8), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("messages lost")
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, v)
		}
	}
}

func TestPayloadCopiedOnSend(t *testing.T) {
	_, a, b := newPair(t, LAN100)
	gotCh := make(chan []byte, 1)
	b.SetHandler(func(_ string, payload []byte) { gotCh <- payload })
	buf := []byte("original")
	if err := a.Send("b", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	select {
	case got := <-gotCh:
		if string(got) != "original" {
			t.Errorf("payload aliased sender buffer: %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery")
	}
}

func TestStatsAccumulate(t *testing.T) {
	n, a, b := newPair(t, LAN100)
	b.SetHandler(func(string, []byte) {})
	for i := 0; i < 3; i++ {
		if err := a.Send("b", make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	stats := n.Stats()
	if len(stats) != 1 {
		t.Fatalf("stats entries: %+v", stats)
	}
	s := stats[0]
	if s.From != "a" || s.To != "b" || s.Messages != 3 || s.Bytes != 300 {
		t.Errorf("stats = %+v", s)
	}
}

func TestChargeAdvancesClock(t *testing.T) {
	_, a, _ := newPair(t, LAN100)
	a.Charge(3 * time.Second)
	if a.Clock().Now() != 3*time.Second {
		t.Errorf("Charge: %v", a.Clock().Now())
	}
}

// Property: transfer time is monotone in message size and bounded below
// by the fixed overhead.
func TestPropTransferTimeMonotone(t *testing.T) {
	f := func(s1, s2 uint16, bwSel uint8) bool {
		profiles := []Profile{Loopback, LAN100, WAN10, WAN2}
		p := profiles[int(bwSel)%len(profiles)]
		a, b := int(s1), int(s2)
		if a > b {
			a, b = b, a
		}
		ta, tb := p.TransferTime(a), p.TransferTime(b)
		return ta <= tb && ta >= p.MsgOverhead
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: on an idle link, arrival time = sender time + overhead +
// size/bandwidth + latency, for any size.
func TestPropArrivalFormula(t *testing.T) {
	f := func(size uint16) bool {
		n := New(LAN100)
		defer func() { _ = n.Close() }()
		a, err := n.AddHost("a")
		if err != nil {
			return false
		}
		b, err := n.AddHost("b")
		if err != nil {
			return false
		}
		b.SetHandler(func(string, []byte) {})
		arrive, err := a.SendTimed("b", make([]byte, int(size)))
		if err != nil {
			return false
		}
		want := LAN100.TransferTime(int(size)) + LAN100.Latency
		return arrive == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSendLAN(b *testing.B) {
	n := New(LAN100)
	defer func() { _ = n.Close() }()
	a, _ := n.AddHost("a")
	h, _ := n.AddHost("b")
	h.SetHandler(func(string, []byte) {})
	payload := make([]byte, 1024)
	b.ReportAllocs()
	for b.Loop() {
		if err := a.Send("b", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleProfile_TransferTime() {
	// 3 MB over the paper's 100 Mbit LAN.
	fmt.Println(LAN100.TransferTime(3 << 20).Round(time.Millisecond))
	// Output: 252ms
}
