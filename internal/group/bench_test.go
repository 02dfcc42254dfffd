package group

import (
	"fmt"
	"testing"
)

func BenchmarkFIFOStampReceive(b *testing.B) {
	members := []string{"a", "b"}
	snd, _ := NewEngine("a", members, FIFO)
	rcv, _ := NewEngine("b", members, FIFO)
	b.ReportAllocs()
	for b.Loop() {
		env := snd.Stamp(nil)
		if _, err := rcv.Receive(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCausalStampReceive(b *testing.B) {
	members := []string{"a", "b"}
	snd, _ := NewEngine("a", members, Causal)
	rcv, _ := NewEngine("b", members, Causal)
	b.ReportAllocs()
	for b.Loop() {
		env := snd.Stamp(nil)
		if _, err := rcv.Receive(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTotalSequencedReceive(b *testing.B) {
	members := []string{"seq", "a"}
	seq, _ := NewEngine("seq", members, Total)
	snd, _ := NewEngine("a", members, Total)
	rcv, _ := NewEngine("seq", members, Total)
	_ = rcv
	b.ReportAllocs()
	for b.Loop() {
		env := snd.Stamp(nil)
		seq.Sequence(&env)
		if _, err := seq.Receive(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVCEncodeDecode(b *testing.B) {
	vc := VectorClock{}
	for i := 0; i < 8; i++ {
		vc[fmt.Sprintf("member-%d", i)] = uint64(i * 1000)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeVC(vc.Encode()); err != nil {
			b.Fatal(err)
		}
	}
}
