package simnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"
)

// chunkReader hands data out in pieces whose sizes cycle through chunks
// (0 means "whatever is left"), and counts the Read calls it served.
type chunkReader struct {
	data   []byte
	chunks []int
	reads  int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	r.reads++
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(r.data))
	if len(r.chunks) > 0 {
		if c := r.chunks[(r.reads-1)%len(r.chunks)]; c > 0 {
			n = min(n, c)
		}
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

type wireFrame struct {
	from    string
	payload []byte
}

// oracleFrames reads a stream with the previous codec until it fails,
// returning the frames it yielded and the error that ended it.
func oracleFrames(stream []byte) ([]wireFrame, error) {
	r := bytes.NewReader(stream)
	var frames []wireFrame
	for {
		from, payload, err := readFrame(r)
		if err != nil {
			return frames, err
		}
		frames = append(frames, wireFrame{from, payload})
	}
}

// checkStream reads stream through the new reader in the given chunk
// pattern and holds it to the oracle: the same (from, payload) sequence,
// an error exactly where the oracle has one and never a partial frame
// before it, and payloads that alias neither each other nor the read
// buffer.
func checkStream(t *testing.T, stream []byte, chunks []int) {
	t.Helper()
	want, wantErr := oracleFrames(stream)
	// The stream ends cleanly only if the oracle's frames account for all
	// of it (the oracle's own io.EOF does not say: io.ReadFull returns it
	// for any field of which no byte arrived).
	wantEnd := io.ErrUnexpectedEOF
	whole := 0
	for _, f := range want {
		whole += 2 + len(f.from) + 4 + len(f.payload)
	}
	if whole == len(stream) {
		wantEnd = io.EOF
	}
	fr := newFrameReader(&chunkReader{data: stream, chunks: chunks})
	var got [][]byte
	for i := 0; ; i++ {
		from, payload, err := fr.next()
		if err != nil {
			if i != len(want) {
				t.Fatalf("chunks %v: reader stopped with %v after %d frames, oracle read %d", chunks, err, i, len(want))
			}
			if err != wantEnd {
				t.Fatalf("chunks %v: reader ended with %v, want %v (oracle: %v)", chunks, err, wantEnd, wantErr)
			}
			if payload != nil || from != "" {
				t.Fatalf("chunks %v: error %v came with a partial frame (%q, %d bytes)", chunks, err, from, len(payload))
			}
			break
		}
		if i >= len(want) {
			t.Fatalf("chunks %v: reader yielded frame %d, oracle stopped at %d with %v", chunks, i, len(want), wantErr)
		}
		if from != want[i].from || !bytes.Equal(payload, want[i].payload) {
			t.Fatalf("chunks %v: frame %d = (%q, %d bytes), oracle (%q, %d bytes)",
				chunks, i, from, len(payload), want[i].from, len(want[i].payload))
		}
		got = append(got, payload)
	}
	// Scribble over the read buffer, then over each payload in turn: every
	// other payload must still be what the oracle read.
	for i := range fr.buf {
		fr.buf[i] ^= 0xff
	}
	for i := -1; i < len(got); i++ {
		if i >= 0 {
			for j := range got[i] {
				got[i][j] ^= 0xff
			}
		}
		for k := i + 1; k < len(got); k++ {
			if !bytes.Equal(got[k], want[k].payload) {
				t.Fatalf("chunks %v: payload %d changed when %d (-1: the read buffer) was overwritten", chunks, k, i)
			}
		}
	}
}

// fuzzPayloadSizes are the payload lengths FuzzFrameStream picks from:
// empty, tiny, around the read buffer's size and beyond it, and past the
// eager-allocation limit. -1 stands for the fuzzed seed's own length.
var fuzzPayloadSizes = [...]int{0, 1, 5, -1, 255, 4096, readBufSize - 7, readBufSize - 6, readBufSize,
	readBufSize + 1, 2*readBufSize + 3, eagerPayload + 1}

// buildStream encodes up to six frames with the previous codec. sel
// picks each frame's payload size (low nibble) and whether it changes
// sender (bit 6), so interning sees both repeats and switches.
func buildStream(sender string, seed, sel []byte) []byte {
	sender = sender[:min(len(sender), 1<<16-1)]
	var stream []byte
	for i, s := range sel[:min(len(sel), 6)] {
		from := sender
		if s&0x40 != 0 {
			from = sender[len(sender)/2:]
		}
		size := fuzzPayloadSizes[int(s&0x0f)%len(fuzzPayloadSizes)]
		if size < 0 {
			size = len(seed)
		}
		payload := make([]byte, size)
		for j := range payload {
			payload[j] = byte(i) ^ byte(j)
			if len(seed) > 0 {
				payload[j] ^= seed[j%len(seed)]
			}
		}
		stream = append(stream, encodeFrame(from, payload)...)
	}
	return stream
}

// FuzzFrameStream: k frames with a fuzzed sender and payload — empty and
// larger than the read buffer included — reach the new reader through a
// reader returning fuzzed chunk sizes. Whole or cut short anywhere, the
// reader agrees with the previous codec (checkStream), and the new
// writer's bytes for the same frames are the previous codec's bytes.
func FuzzFrameStream(f *testing.F) {
	f.Add("127.0.0.1:40001", []byte("hello"), []byte{3}, []byte{0}, uint32(0))
	f.Add("127.0.0.1:40001", []byte("hello"), []byte{3, 0, 3, 0x43, 1}, []byte{1}, uint32(9))            // one byte at a time
	f.Add("h:1", []byte{1, 2, 3}, []byte{3, 3, 3}, []byte{1, 3, 2, 200}, uint32(4))                      // split inside the header
	f.Add("a-rather-longer-sender.example:27017", []byte{}, []byte{0, 0, 0x40, 0}, []byte{2}, uint32(1)) // empty payloads, sender switch
	f.Add("127.0.0.1:1", []byte{7}, []byte{8, 9, 1, 10}, []byte{0}, uint32(70000))                       // at and past the buffer size
	f.Add("127.0.0.1:1", []byte{9, 9}, []byte{6, 7, 1, 11, 1}, []byte{130, 5, 255}, uint32(1<<20))       // header straddles the buffer end; > eager limit
	f.Add("", []byte{}, []byte{0}, []byte{}, uint32(5))                                                  // empty sender, empty payload
	f.Fuzz(func(t *testing.T, sender string, seed, sel, chunkSel []byte, cut uint32) {
		stream := buildStream(sender, seed, sel)
		if len(stream) == 0 {
			return
		}
		// Chunk sizes: 0 is "all there is", 1..127 bytes, then KiB steps.
		chunks := make([]int, len(chunkSel))
		for i, c := range chunkSel {
			if chunks[i] = int(c); c >= 128 {
				chunks[i] = (int(c) - 127) << 10
			}
		}
		checkStream(t, stream, chunks)
		checkStream(t, stream[:int(cut)%len(stream)], chunks)

		// The reverse direction: the new writer's bytes are the oracle's.
		want, _ := oracleFrames(stream)
		var out closeBuffer
		for _, fr := range want {
			w, err := newFrameWriter(&out, fr.from)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.writeFrame(fr.payload); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(out.Bytes(), stream) {
			t.Fatal("new writer's bytes differ from the previous codec's")
		}
	})
}

// TestFrameStreamEverySplit delivers a short multi-frame stream in two
// reads split at every byte position, and cut short at every position.
func TestFrameStreamEverySplit(t *testing.T) {
	stream := buildStream("127.0.0.1:40001", []byte("payload"), []byte{3, 0, 0x43, 1, 2})
	for at := 1; at < len(stream); at++ {
		checkStream(t, stream, []int{at, 0})
		checkStream(t, stream[:at], nil)
		checkStream(t, stream[:at], []int{1})
	}
}

// TestFrameReaderReadCalls is the one-read rule, counted: a frame that
// arrives alone costs exactly one Read, and a burst of 64 small frames
// costs one for the lot (the second call only learns the stream ended).
func TestFrameReaderReadCalls(t *testing.T) {
	one := encodeFrame("127.0.0.1:40001", bytes.Repeat([]byte{'x'}, 300))
	src := &chunkReader{data: one}
	fr := newFrameReader(src)
	if _, payload, err := fr.next(); err != nil || len(payload) != 300 {
		t.Fatalf("lone frame: %d bytes, %v", len(payload), err)
	}
	if src.reads != 1 {
		t.Errorf("a lone frame cost %d Read calls, want exactly 1", src.reads)
	}

	src = &chunkReader{data: bytes.Repeat(one, 64)}
	fr = newFrameReader(src)
	for i := 0; i < 64; i++ {
		if _, payload, err := fr.next(); err != nil || len(payload) != 300 {
			t.Fatalf("burst frame %d: %d bytes, %v", i, len(payload), err)
		}
	}
	if _, _, err := fr.next(); err != io.EOF {
		t.Fatalf("after the burst: %v, want io.EOF", err)
	}
	if src.reads > 2 {
		t.Errorf("a burst of 64 small frames cost %d Read calls, want <= 2", src.reads)
	}
}

// TestFrameReaderInternsSender: a connection's frames all name the same
// sender, so only the first one pays for the string.
func TestFrameReaderInternsSender(t *testing.T) {
	stream := bytes.Repeat(encodeFrame("127.0.0.1:40001", []byte("p")), 100)
	fr := newFrameReader(bytes.NewReader(stream))
	if _, _, err := fr.next(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(90, func() {
		if from, _, err := fr.next(); err != nil || from != "127.0.0.1:40001" {
			t.Fatalf("%q %v", from, err)
		}
	})
	if allocs != 1 {
		t.Errorf("a repeat-sender frame costs %v allocations, want 1 (its payload)", allocs)
	}
}

// allocatedBy returns the heap bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFrameHeaderCannotBuyMemory: a header is six bytes anyone can send
// before channel auth sees anything, so its payload-length word buys at
// most eagerPayload; beyond it memory follows the bytes that arrive.
func TestFrameHeaderCannotBuyMemory(t *testing.T) {
	claim := binary.BigEndian.AppendUint32([]byte{0, 1, 'a'}, maxFrame)
	var err error
	got := allocatedBy(func() { _, _, err = newFrameReader(bytes.NewReader(claim)).next() })
	if err != io.ErrUnexpectedEOF {
		t.Errorf("64 MiB claim then EOF: %v, want io.ErrUnexpectedEOF", err)
	}
	if got >= 2<<20 {
		t.Errorf("64 MiB claim then EOF allocated %d bytes, want < 2 MiB", got)
	}

	sent := 3 << 19 // 1.5 MiB of the claimed 64
	part := append(claim[:len(claim):len(claim)], make([]byte, sent)...)
	got = allocatedBy(func() { _, _, err = newFrameReader(bytes.NewReader(part)).next() })
	if err != io.ErrUnexpectedEOF {
		t.Errorf("64 MiB claim, 1.5 MiB sent: %v, want io.ErrUnexpectedEOF", err)
	}
	if got >= 3*uint64(sent) {
		t.Errorf("64 MiB claim, 1.5 MiB sent allocated %d bytes, want < 3x what arrived", got)
	}

	// An honest frame past the limit still arrives whole.
	honest := make([]byte, 2*eagerPayload+3)
	for i := range honest {
		honest[i] = byte(i * 7)
	}
	checkStream(t, encodeFrame("127.0.0.1:40001", honest), []int{readBufSize + 5, 100, 0})
}

// TestTCPOversizeFrameFailsAtSender: a frame the wire cannot carry is
// refused with a typed error before any byte is written, so the
// connection stays usable and the receiver sees nothing of it.
func TestTCPOversizeFrameFailsAtSender(t *testing.T) {
	a, b := newTCPPair(t)
	got := make(chan int, 2)
	b.SetHandler(func(_ string, p []byte) { got <- len(p) })
	if err := a.Send(b.Addr(), []byte("first")); err != nil {
		t.Fatal(err)
	}
	if n := <-got; n != 5 {
		t.Fatalf("first frame: %d bytes", n)
	}
	if err := a.Send(b.Addr(), make([]byte, maxFrame+1)); !errors.Is(err, errFrameSize) {
		t.Fatalf("oversize send: %v, want errFrameSize", err)
	}
	if err := a.Send(b.Addr(), []byte("after")); err != nil {
		t.Fatalf("send after a refused frame: %v", err)
	}
	select {
	case n := <-got:
		if n != 5 {
			t.Errorf("receiver saw a %d-byte frame, want only the 5-byte one", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("connection unusable after a refused frame")
	}
	if _, err := newFrameWriter(&closeBuffer{}, string(make([]byte, 1<<16))); !errors.Is(err, errFrameSize) {
		t.Errorf("65,536-byte sender: %v, want errFrameSize", err)
	}
}

// TestTCPConcurrentSendNoInterleave: frames from concurrent senders to
// one peer share a connection and must each arrive whole and, per
// sender, in order. Run under -race (make chaos).
func TestTCPConcurrentSendNoInterleave(t *testing.T) {
	a, b := newTCPPair(t)
	const senders, perSender = 8, 1000
	// A frame is sender id, sequence number, then filler that repeats a
	// byte derived from both — a frame spliced from two fails the check.
	var mu sync.Mutex
	next := make([]int, senders)
	total, bad := 0, ""
	done := make(chan struct{})
	b.SetHandler(func(_ string, p []byte) {
		mu.Lock()
		defer mu.Unlock()
		if bad != "" {
			return
		}
		if len(p) < 3 || int(p[0]) >= senders {
			bad = "malformed frame"
			return
		}
		g, seq := int(p[0]), int(binary.BigEndian.Uint16(p[1:]))
		if seq != next[g] || len(p) != 3+(seq*7+g)%600 {
			bad = "frame out of order or mis-sized"
			return
		}
		for _, c := range p[3:] {
			if c != byte(g*31+seq) {
				bad = "frame spliced from two senders"
				return
			}
		}
		next[g]++
		if total++; total == senders*perSender {
			close(done)
		}
	})
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seq := 0; seq < perSender; seq++ {
				p := binary.BigEndian.AppendUint16([]byte{byte(g)}, uint16(seq))
				p = append(p, bytes.Repeat([]byte{byte(g*31 + seq)}, (seq*7+g)%600)...)
				if err := a.Send(b.Addr(), p); err != nil {
					t.Errorf("sender %d frame %d: %v", g, seq, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
	}
	mu.Lock()
	defer mu.Unlock()
	if bad != "" || total != senders*perSender {
		t.Fatalf("%d of %d frames arrived intact; %s", total, senders*perSender, bad)
	}
}
