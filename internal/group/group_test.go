package group

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustEngine(t *testing.T, self string, members []string, o Ordering) *Engine {
	t.Helper()
	e, err := NewEngine(self, members, o)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine("x", []string{"a", "b"}, FIFO); !errors.Is(err, ErrUnknownMember) {
		t.Errorf("self outside members: %v", err)
	}
	e := mustEngine(t, "a", []string{"b", "a"}, FIFO)
	got := e.Members()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Members = %v", got)
	}
	if e.Self() != "a" {
		t.Errorf("Self = %q", e.Self())
	}
}

func TestFIFOInOrderDelivery(t *testing.T) {
	a := mustEngine(t, "a", []string{"a", "b"}, FIFO)
	b := mustEngine(t, "b", []string{"a", "b"}, FIFO)
	e1 := a.Stamp([]byte("m1"))
	e2 := a.Stamp([]byte("m2"))
	out, err := b.Receive(e1)
	if err != nil || len(out) != 1 || string(out[0].Payload) != "m1" {
		t.Fatalf("first delivery: %v %v", out, err)
	}
	out, _ = b.Receive(e2)
	if len(out) != 1 || string(out[0].Payload) != "m2" {
		t.Fatalf("second delivery: %v", out)
	}
}

func TestFIFOReordersOutOfOrderArrival(t *testing.T) {
	a := mustEngine(t, "a", []string{"a", "b"}, FIFO)
	b := mustEngine(t, "b", []string{"a", "b"}, FIFO)
	e1 := a.Stamp([]byte("m1"))
	e2 := a.Stamp([]byte("m2"))
	e3 := a.Stamp([]byte("m3"))

	out, _ := b.Receive(e3)
	if len(out) != 0 {
		t.Fatalf("delivered ahead of order: %v", out)
	}
	if b.numHeld() != 1 {
		t.Errorf("held = %d", b.numHeld())
	}
	out, _ = b.Receive(e1)
	if len(out) != 1 || string(out[0].Payload) != "m1" {
		t.Fatalf("after e1: %v", out)
	}
	out, _ = b.Receive(e2)
	if len(out) != 2 || string(out[0].Payload) != "m2" || string(out[1].Payload) != "m3" {
		t.Fatalf("after e2 (flush): %v", out)
	}
	if b.numHeld() != 0 {
		t.Errorf("held after flush = %d", b.numHeld())
	}
}

func TestFIFOIndependentSenders(t *testing.T) {
	members := []string{"a", "b", "c"}
	a := mustEngine(t, "a", members, FIFO)
	b := mustEngine(t, "b", members, FIFO)
	c := mustEngine(t, "c", members, FIFO)
	ea := a.Stamp([]byte("from-a"))
	eb := b.Stamp([]byte("from-b"))
	// c receives b's first message then a's: both deliverable immediately
	// (FIFO constrains only per-sender order).
	out, _ := c.Receive(eb)
	if len(out) != 1 {
		t.Fatalf("b's message held: %v", out)
	}
	out, _ = c.Receive(ea)
	if len(out) != 1 {
		t.Fatalf("a's message held: %v", out)
	}
}

func TestRejectsUnknownSender(t *testing.T) {
	b := mustEngine(t, "b", []string{"a", "b"}, FIFO)
	if _, err := b.Receive(Envelope{Sender: "zz", Seq: 1}); !errors.Is(err, ErrUnknownMember) {
		t.Errorf("unknown sender err = %v", err)
	}
}

func TestCausalDelaysUntilDependenciesMet(t *testing.T) {
	members := []string{"a", "b", "c"}
	a := mustEngine(t, "a", members, Causal)
	b := mustEngine(t, "b", members, Causal)
	c := mustEngine(t, "c", members, Causal)

	// a sends m1; b receives it, then sends m2 (causally after m1).
	m1 := a.Stamp([]byte("m1"))
	if out, _ := b.Receive(m1); len(out) != 1 {
		t.Fatal("b did not deliver m1")
	}
	m2 := b.Stamp([]byte("m2"))

	// c receives m2 BEFORE m1: must hold m2.
	out, _ := c.Receive(m2)
	if len(out) != 0 {
		t.Fatalf("causal violation: delivered %v", out)
	}
	out, _ = c.Receive(m1)
	if len(out) != 2 || string(out[0].Payload) != "m1" || string(out[1].Payload) != "m2" {
		t.Fatalf("causal flush order: %v", out)
	}
}

func TestCausalConcurrentMessagesDeliverable(t *testing.T) {
	members := []string{"a", "b", "c"}
	a := mustEngine(t, "a", members, Causal)
	b := mustEngine(t, "b", members, Causal)
	c := mustEngine(t, "c", members, Causal)

	ma := a.Stamp([]byte("ma")) // concurrent with mb
	mb := b.Stamp([]byte("mb"))
	out, _ := c.Receive(mb)
	if len(out) != 1 {
		t.Fatalf("concurrent mb held: %v", out)
	}
	out, _ = c.Receive(ma)
	if len(out) != 1 {
		t.Fatalf("concurrent ma held: %v", out)
	}
}

func TestTotalOrderViaSequencer(t *testing.T) {
	members := []string{"seq", "a", "b"}
	seq := mustEngine(t, "seq", members, Total)
	a := mustEngine(t, "a", members, Total)
	b := mustEngine(t, "b", members, Total)

	// Two concurrent sends hit the sequencer, which assigns slots.
	ea := a.Stamp([]byte("from-a"))
	eb := b.Stamp([]byte("from-b"))
	seq.Sequence(&eb) // b's message sequenced first
	seq.Sequence(&ea)

	// Both members must deliver in sequencer order regardless of arrival.
	outA1, _ := a.Receive(ea) // arrives out of order at a
	if len(outA1) != 0 {
		t.Fatalf("a delivered slot-2 first: %v", outA1)
	}
	outA2, _ := a.Receive(eb)
	if len(outA2) != 2 || string(outA2[0].Payload) != "from-b" || string(outA2[1].Payload) != "from-a" {
		t.Fatalf("a delivery order: %v", outA2)
	}
	outB1, _ := b.Receive(eb)
	outB2, _ := b.Receive(ea)
	if len(outB1) != 1 || len(outB2) != 1 ||
		string(outB1[0].Payload) != "from-b" || string(outB2[0].Payload) != "from-a" {
		t.Fatalf("b delivery order: %v %v", outB1, outB2)
	}
}

func TestSequencerAlsoDelivers(t *testing.T) {
	// Regression: the sequencer is usually itself a group member; slot
	// allocation must not advance its own delivery cursor.
	members := []string{"seq", "a"}
	seq := mustEngine(t, "seq", members, Total)
	a := mustEngine(t, "a", members, Total)

	e1 := a.Stamp([]byte("m1"))
	seq.Sequence(&e1)
	e2 := a.Stamp([]byte("m2"))
	seq.Sequence(&e2)

	out, err := seq.Receive(e1)
	if err != nil || len(out) != 1 || string(out[0].Payload) != "m1" {
		t.Fatalf("sequencer delivery of slot 1: %v %v", out, err)
	}
	out, _ = seq.Receive(e2)
	if len(out) != 1 || string(out[0].Payload) != "m2" {
		t.Fatalf("sequencer delivery of slot 2: %v", out)
	}
	if seq.numHeld() != 0 {
		t.Errorf("sequencer held %d", seq.numHeld())
	}
}

func TestVectorClockOps(t *testing.T) {
	v := VectorClock{"a": 1, "b": 2}
	w := v.Clone()
	w["a"] = 5
	if v["a"] != 1 {
		t.Error("Clone aliases the map")
	}
	if !v.lessEq(w) {
		t.Error("v should be ≤ w")
	}
	if w.lessEq(v) {
		t.Error("w should not be ≤ v")
	}
	v.Merge(w)
	if v["a"] != 5 || v["b"] != 2 {
		t.Errorf("Merge: %v", v)
	}
}

func TestVCEncodeDecode(t *testing.T) {
	v := VectorClock{"b": 2, "a": 10}
	if v.Encode() != "a=10,b=2" {
		t.Errorf("Encode = %q", v.Encode())
	}
	got, err := DecodeVC("a=10,b=2")
	if err != nil || got["a"] != 10 || got["b"] != 2 {
		t.Errorf("DecodeVC = %v, %v", got, err)
	}
	if got, err := DecodeVC(""); err != nil || len(got) != 0 {
		t.Errorf("empty decode = %v, %v", got, err)
	}
	for _, bad := range []string{"a", "=1", "a=x", "a=1,,b=2"} {
		if _, err := DecodeVC(bad); err == nil {
			t.Errorf("DecodeVC(%q) accepted", bad)
		}
	}
}

func TestEnvelopeMetaRoundTrip(t *testing.T) {
	env := Envelope{Sender: "a", Seq: 7, GlobalSeq: 42, VC: VectorClock{"a": 7, "b": 1}}
	got, err := DecodeMeta(env.EncodeMeta())
	if err != nil {
		t.Fatal(err)
	}
	if got.Sender != "a" || got.Seq != 7 || got.GlobalSeq != 42 || got.VC["b"] != 1 {
		t.Errorf("round trip: %+v", got)
	}
	for _, bad := range []string{"", "a|1", "|1|2|", "a|x|2|", "a|1|x|"} {
		if _, err := DecodeMeta(bad); err == nil {
			t.Errorf("DecodeMeta(%q) accepted", bad)
		}
	}
}

// Property: FIFO delivery preserves per-sender send order under any
// arrival permutation, and every message is eventually delivered.
func TestPropFIFOPermutationSafe(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		members := []string{"a", "b", "r"}
		a, _ := NewEngine("a", members, FIFO)
		b, _ := NewEngine("b", members, FIFO)
		r, _ := NewEngine("r", members, FIFO)

		var envs []Envelope
		na, nb := 1+rng.Intn(5), 1+rng.Intn(5)
		for i := 0; i < na; i++ {
			envs = append(envs, a.Stamp([]byte{byte('a'), byte(i)}))
		}
		for i := 0; i < nb; i++ {
			envs = append(envs, b.Stamp([]byte{byte('b'), byte(i)}))
		}
		rng.Shuffle(len(envs), func(i, j int) { envs[i], envs[j] = envs[j], envs[i] })

		var delivered []Envelope
		for _, env := range envs {
			out, err := r.Receive(env)
			if err != nil {
				return false
			}
			delivered = append(delivered, out...)
		}
		if len(delivered) != na+nb || r.numHeld() != 0 {
			return false
		}
		// Per-sender order must be send order.
		last := map[string]uint64{}
		for _, d := range delivered {
			if d.Seq != last[d.Sender]+1 {
				return false
			}
			last[d.Sender] = d.Seq
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: total order delivers identically on every member under any
// arrival permutation.
func TestPropTotalOrderAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		members := []string{"seq", "a", "b"}
		seqr, _ := NewEngine("seq", members, Total)
		a, _ := NewEngine("a", members, Total)
		b, _ := NewEngine("b", members, Total)

		n := 1 + rng.Intn(8)
		envs := make([]Envelope, n)
		for i := range envs {
			src := a
			if rng.Intn(2) == 0 {
				src = b
			}
			envs[i] = src.Stamp([]byte{byte(i)})
			seqr.Sequence(&envs[i])
		}
		deliver := func(e *Engine) ([]byte, bool) {
			perm := rng.Perm(n)
			var got []byte
			for _, i := range perm {
				out, err := e.Receive(envs[i])
				if err != nil {
					return nil, false
				}
				for _, d := range out {
					got = append(got, d.Payload[0])
				}
			}
			return got, len(got) == n
		}
		ga, oka := deliver(a)
		gb, okb := deliver(b)
		if !oka || !okb {
			return false
		}
		for i := range ga {
			if ga[i] != gb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: causal delivery never violates happened-before under any
// arrival permutation of a causal chain.
func TestPropCausalChain(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		members := []string{"a", "b", "c"}
		a, _ := NewEngine("a", members, Causal)
		b, _ := NewEngine("b", members, Causal)
		c, _ := NewEngine("c", members, Causal)

		// Build a causal chain alternating a→b→a→b...
		var chain []Envelope
		cur, other := a, b
		n := 2 + rng.Intn(6)
		for i := 0; i < n; i++ {
			env := cur.Stamp([]byte{byte(i)})
			if _, err := other.Receive(env); err != nil {
				return false
			}
			chain = append(chain, env)
			cur, other = other, cur
		}
		perm := rng.Perm(len(chain))
		var got []byte
		for _, i := range perm {
			out, err := c.Receive(chain[i])
			if err != nil {
				return false
			}
			for _, d := range out {
				got = append(got, d.Payload[0])
			}
		}
		if len(got) != n || c.numHeld() != 0 {
			return false
		}
		// The chain is totally causally ordered: delivery must be 0..n-1.
		for i, v := range got {
			if int(v) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
