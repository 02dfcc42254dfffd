package agent_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
)

func TestStreamRoundTripLocal(t *testing.T) {
	f := newFixture(t)
	sender := f.ctx(t, "src")
	receiver := f.ctx(t, "dst")

	payload := make([]byte, 300*1024) // forces several chunks
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	got := make(chan []byte, 1)
	errs := make(chan error, 1)
	go func() {
		data, err := receiver.ReceiveStream("vid-1", 10*time.Second)
		if err != nil {
			errs <- err
			return
		}
		got <- data
	}()
	if err := agent.SendStream(sender, "system/dst", "vid-1", payload, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-got:
		if !bytes.Equal(data, payload) {
			t.Errorf("payload mismatch: %d vs %d bytes", len(data), len(payload))
		}
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("stream stalled")
	}
}

func TestStreamEmptyPayload(t *testing.T) {
	f := newFixture(t)
	sender := f.ctx(t, "src")
	receiver := f.ctx(t, "dst")
	got := make(chan []byte, 1)
	go func() {
		data, err := receiver.ReceiveStream("empty", 5*time.Second)
		if err == nil {
			got <- data
		}
	}()
	if err := agent.SendStream(sender, "system/dst", "empty", nil, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-got:
		if len(data) != 0 {
			t.Errorf("empty stream yielded %d bytes", len(data))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("empty stream stalled")
	}
}

func TestStreamBuffersUnrelatedTraffic(t *testing.T) {
	f := newFixture(t)
	sender := f.ctx(t, "src")
	receiver := f.ctx(t, "dst")

	// Interleave ordinary mail with the stream.
	note := briefcase.New()
	note.SetString("BODY", "while you were streaming")
	if err := sender.Activate("system/dst", note); err != nil {
		t.Fatal(err)
	}
	if err := agent.SendStream(sender, "system/dst", "s1", []byte("abc"), 2); err != nil {
		t.Fatal(err)
	}
	data, err := receiver.ReceiveStream("s1", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "abc" {
		t.Errorf("stream = %q", data)
	}
	// The ordinary message is still there.
	bc, err := receiver.Await(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if body, _ := bc.GetString("BODY"); body != "while you were streaming" {
		t.Errorf("buffered mail = %q", body)
	}
}

func TestStreamBufferReordering(t *testing.T) {
	// Chunks fed in any order reassemble correctly.
	mk := func(seq, total int, data string) *briefcase.Briefcase {
		bc := briefcase.New()
		bc.SetString(agent.FolderStreamID, "x")
		bc.SetInt(agent.FolderStreamSeq, int64(seq))
		bc.SetInt(agent.FolderStreamTotal, int64(total))
		bc.Ensure(agent.FolderStreamData).AppendString(data)
		return bc
	}
	b := agent.NewStreamBuffer("x")
	for _, seq := range []int{2, 0, 1} {
		mine, done, err := b.Feed(mk(seq, 3, string(rune('a'+seq))))
		if err != nil || !mine {
			t.Fatalf("feed %d: %v %v", seq, mine, err)
		}
		if done != (seq == 1) {
			t.Errorf("done after %d = %v", seq, done)
		}
	}
	data, err := b.Bytes()
	if err != nil || string(data) != "abc" {
		t.Errorf("bytes = %q, %v", data, err)
	}
}

func TestStreamBufferErrors(t *testing.T) {
	b := agent.NewStreamBuffer("x")
	other := briefcase.New()
	other.SetString(agent.FolderStreamID, "y")
	if mine, _, err := b.Feed(other); mine || err != nil {
		t.Errorf("foreign stream: mine=%v err=%v", mine, err)
	}
	plain := briefcase.New()
	if mine, _, _ := b.Feed(plain); mine {
		t.Error("plain briefcase claimed")
	}

	bad := briefcase.New()
	bad.SetString(agent.FolderStreamID, "x")
	if _, _, err := b.Feed(bad); !errors.Is(err, agent.ErrStreamCorrupt) {
		t.Errorf("chunk without seq: %v", err)
	}

	mk := func(seq, total int) *briefcase.Briefcase {
		bc := briefcase.New()
		bc.SetString(agent.FolderStreamID, "x")
		bc.SetInt(agent.FolderStreamSeq, int64(seq))
		bc.SetInt(agent.FolderStreamTotal, int64(total))
		bc.Ensure(agent.FolderStreamData).AppendString("d")
		return bc
	}
	b2 := agent.NewStreamBuffer("x")
	if _, _, err := b2.Feed(mk(0, 2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b2.Feed(mk(1, 3)); !errors.Is(err, agent.ErrStreamCorrupt) {
		t.Errorf("total disagreement: %v", err)
	}
	if _, _, err := b2.Feed(mk(9, 2)); !errors.Is(err, agent.ErrStreamCorrupt) {
		t.Errorf("out-of-range seq: %v", err)
	}
	if _, err := b2.Bytes(); !errors.Is(err, agent.ErrStreamCorrupt) {
		t.Errorf("premature Bytes: %v", err)
	}
}

// Property: any payload at any chunk size round-trips through buffer
// reassembly under any arrival permutation.
func TestPropStreamReassembly(t *testing.T) {
	f := func(seed int64, sizeSel uint16, chunkSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, int(sizeSel)%2048)
		rng.Read(payload)
		chunk := 1 + int(chunkSel)%257

		total := (len(payload) + chunk - 1) / chunk
		if total == 0 {
			total = 1
		}
		var chunks []*briefcase.Briefcase
		for seq := 0; seq < total; seq++ {
			lo := seq * chunk
			hi := lo + chunk
			if hi > len(payload) {
				hi = len(payload)
			}
			bc := briefcase.New()
			bc.SetString(agent.FolderStreamID, "p")
			bc.SetInt(agent.FolderStreamSeq, int64(seq))
			bc.SetInt(agent.FolderStreamTotal, int64(total))
			bc.Ensure(agent.FolderStreamData).Append(payload[lo:hi])
			chunks = append(chunks, bc)
		}
		rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })

		b := agent.NewStreamBuffer("p")
		done := false
		for _, c := range chunks {
			var err error
			_, done, err = b.Feed(c)
			if err != nil {
				return false
			}
		}
		if !done {
			return false
		}
		got, err := b.Bytes()
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
