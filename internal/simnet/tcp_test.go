package simnet

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

func newTCPPair(t *testing.T) (*TCPNode, *TCPNode) {
	t.Helper()
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	return a, b
}

func TestTCPSendReceive(t *testing.T) {
	a, b := newTCPPair(t)
	got := make(chan string, 1)
	b.SetHandler(func(from string, payload []byte) {
		got <- from + "|" + string(payload)
	})
	if err := a.Send(b.Addr(), []byte("hello over tcp")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		want := a.Addr() + "|hello over tcp"
		if msg != want {
			t.Errorf("got %q, want %q", msg, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}
}

func TestTCPBidirectional(t *testing.T) {
	a, b := newTCPPair(t)
	fromB := make(chan []byte, 1)
	a.SetHandler(func(_ string, p []byte) { fromB <- p })
	b.SetHandler(func(from string, p []byte) {
		// Reply to the sender's listen address carried in the frame.
		_ = b.Send(from, append([]byte("re:"), p...))
	})
	if err := a.Send(b.Addr(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-fromB:
		if string(p) != "re:ping" {
			t.Errorf("reply = %q", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply")
	}
}

func TestTCPManyMessagesOrdered(t *testing.T) {
	a, b := newTCPPair(t)
	const count = 200
	var mu sync.Mutex
	var got []byte
	done := make(chan struct{})
	b.SetHandler(func(_ string, p []byte) {
		mu.Lock()
		got = append(got, p[0])
		if len(got) == count {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < count; i++ {
		if err := a.Send(b.Addr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		n := len(got)
		mu.Unlock()
		t.Fatalf("lost messages: got %d of %d", n, count)
	}
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("out of order at %d", i)
		}
	}
}

func TestTCPSendToDeadPeer(t *testing.T) {
	a, _ := newTCPPair(t)
	if err := a.Send("127.0.0.1:1", []byte("x")); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("dead peer err = %v, want ErrUnknownHost", err)
	}
}

func TestTCPClosedNodeRejectsSend(t *testing.T) {
	a, b := newTCPPair(t)
	_ = a.Close()
	if err := a.Send(b.Addr(), []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close err = %v", err)
	}
	// Close is idempotent.
	if err := a.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestTCPLargePayload(t *testing.T) {
	a, b := newTCPPair(t)
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	got := make(chan []byte, 1)
	b.SetHandler(func(_ string, p []byte) { got <- p })
	if err := a.Send(b.Addr(), payload); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if len(p) != len(payload) {
			t.Fatalf("size %d, want %d", len(p), len(payload))
		}
		for i := 0; i < len(p); i += 4099 {
			if p[i] != payload[i] {
				t.Fatalf("corruption at %d", i)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery")
	}
}

// TestFrameCodec: the wire format is what it was. Frames the previous
// codec (reference_test.go) encodes are read by the new reader, frames
// the new writer emits are byte-identical to the previous encoding and
// read by the previous reader.
func TestFrameCodec(t *testing.T) {
	frame := encodeFrame("1.2.3.4:99", []byte("payload"))
	from, payload, err := newFrameReader(bytes.NewReader(frame)).next()
	if err != nil {
		t.Fatal(err)
	}
	if from != "1.2.3.4:99" || string(payload) != "payload" {
		t.Errorf("decoded %q %q", from, payload)
	}
	var out closeBuffer
	w, err := newFrameWriter(&out, "1.2.3.4:99")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.writeFrame([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), frame) {
		t.Errorf("new writer emitted % x, previous codec % x", out.Bytes(), frame)
	}
	if from, payload, err := readFrame(&out); err != nil || from != "1.2.3.4:99" || string(payload) != "payload" {
		t.Errorf("previous reader on the new writer's frame: %q %q %v", from, payload, err)
	}
	// Truncated frames error rather than hang or panic.
	for cut := 1; cut < len(frame); cut++ {
		if _, _, err := newFrameReader(bytes.NewReader(frame[:cut])).next(); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// closeBuffer is an in-memory connection for the frame writer.
type closeBuffer struct{ bytes.Buffer }

func (*closeBuffer) Close() error { return nil }
