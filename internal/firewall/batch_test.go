package firewall

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tax/internal/briefcase"
	"tax/internal/faults"
	"tax/internal/identity"
	"tax/internal/simnet"
)

// newBatchPair builds the common two-host batching fixture: batching
// enabled on both sides with bcfg, plus an optional extra Config hook.
func newBatchPair(t *testing.T, bcfg BatchConfig, mutate func(*Config)) (*fixture, *Firewall, *Firewall) {
	t.Helper()
	f := newFixture(t)
	f.config = func(c *Config) {
		cfg := bcfg
		c.Batch = &cfg
		if mutate != nil {
			mutate(c)
		}
	}
	f.addHost("h1")
	f.addHost("h2")
	return f, f.sites["h1"].fw, f.sites["h2"].fw
}

// TestBatchedMediationDelivers: messages queue per link, flush on the
// frame threshold, and every briefcase arrives individually mediated
// and in order.
func TestBatchedMediationDelivers(t *testing.T) {
	_, fw1, fw2 := newBatchPair(t, BatchConfig{MaxFrames: 4, FlushEvery: -1, MaxDelay: time.Hour}, nil)
	sender, _ := fw1.Register("vm_go", "alice", "sender")
	recv, _ := fw2.Register("vm_go", "alice", "receiver")

	const n = 10
	for i := 0; i < n; i++ {
		send(t, fw1, sender, "tacoma://h2/alice/receiver", "m"+strconv.Itoa(i))
	}
	// 10 frames at MaxFrames 4: two threshold flushes, two frames left.
	if err := fw1.FlushBatches(); err != nil {
		t.Fatalf("FlushBatches: %v", err)
	}
	for i := 0; i < n; i++ {
		if got, want := recvBody(t, recv, time.Second), "m"+strconv.Itoa(i); got != want {
			t.Fatalf("message %d: got %q want %q", i, got, want)
		}
	}
	if got := fw1.ctr.batchFrames.Value(); got != n {
		t.Errorf("batch_frames = %d, want %d", got, n)
	}
	if got := fw1.ctr.batchFlushes.Value(); got != 3 {
		t.Errorf("batch_flushes = %d, want 3 (2 threshold + 1 explicit)", got)
	}
	if got := fw2.ctr.batchRecv.Value(); got != n {
		t.Errorf("receiver batch_recv = %d, want %d", got, n)
	}
	if got := fw1.ctr.forwarded.Value(); got != n {
		t.Errorf("forwarded = %d, want %d (batching must not change per-frame accounting)", got, n)
	}
}

// TestBatchVirtualAgeFlush: a Send that finds the queue older than
// MaxDelay on the virtual clock flushes inline — no timer involved.
func TestBatchVirtualAgeFlush(t *testing.T) {
	_, fw1, fw2 := newBatchPair(t, BatchConfig{MaxFrames: 100, MaxDelay: time.Millisecond, FlushEvery: -1}, nil)
	sender, _ := fw1.Register("vm_go", "alice", "sender")
	recv, _ := fw2.Register("vm_go", "alice", "receiver")

	send(t, fw1, sender, "tacoma://h2/alice/receiver", "first")
	// Virtual time passes; the next send sees an aged queue and flushes.
	fw1.Clock().Advance(2 * time.Millisecond)
	send(t, fw1, sender, "tacoma://h2/alice/receiver", "second")
	if got := recvBody(t, recv, time.Second); got != "first" {
		t.Fatalf("got %q want first", got)
	}
	if got := recvBody(t, recv, time.Second); got != "second" {
		t.Fatalf("got %q want second", got)
	}
}

// TestBatchTimerFlush: with no further sends, the real-time safety
// timer pushes a queued frame out.
func TestBatchTimerFlush(t *testing.T) {
	_, fw1, fw2 := newBatchPair(t, BatchConfig{MaxFrames: 100, MaxDelay: time.Hour, FlushEvery: 5 * time.Millisecond}, nil)
	sender, _ := fw1.Register("vm_go", "alice", "sender")
	recv, _ := fw2.Register("vm_go", "alice", "receiver")

	send(t, fw1, sender, "tacoma://h2/alice/receiver", "solo")
	if got := recvBody(t, recv, 2*time.Second); got != "solo" {
		t.Fatalf("got %q want solo", got)
	}
	_ = fw2
}

// TestBatchTransferFlushesInline: agent transfers do not wait in the
// queue — Go/Spawn keep synchronous error semantics — and they carry
// any previously queued frames with them, in order.
func TestBatchTransferFlushesInline(t *testing.T) {
	_, fw1, fw2 := newBatchPair(t, BatchConfig{MaxFrames: 100, MaxDelay: time.Hour, FlushEvery: -1}, nil)
	sender, _ := fw1.Register("vm_go", "alice", "sender")
	recv, _ := fw2.Register("vm_go", "alice", "receiver")

	send(t, fw1, sender, "tacoma://h2/alice/receiver", "queued-msg")
	xfer := briefcase.New()
	xfer.SetString(briefcase.FolderSysTarget, "tacoma://h2/alice/receiver")
	xfer.SetString(FolderKind, KindTransfer)
	xfer.SetString("BODY", "the-transfer")
	if err := fw1.Send(sender.GlobalURI(), xfer); err != nil {
		t.Fatalf("transfer send: %v", err)
	}
	if got := recvBody(t, recv, time.Second); got != "queued-msg" {
		t.Fatalf("got %q want queued-msg (queued frame rides the inline flush first)", got)
	}
	if got := recvBody(t, recv, time.Second); got != "the-transfer" {
		t.Fatalf("got %q want the-transfer", got)
	}
}

// TestBatchPerFrameDedup: two byte-identical frames inside one
// container are mediated individually — the receiver's dedup window
// drops the second, proving the container is unpacked through the full
// inbound path rather than bulk-delivered.
func TestBatchPerFrameDedup(t *testing.T) {
	_, fw1, fw2 := newBatchPair(t, BatchConfig{MaxFrames: 100, MaxDelay: time.Hour, FlushEvery: -1},
		func(c *Config) { c.DedupWindow = 64 })
	sender, _ := fw1.Register("vm_go", "alice", "sender")
	recv, _ := fw2.Register("vm_go", "alice", "receiver")
	// Two sends of equal briefcases from the same registration produce
	// byte-identical frames.
	for i := 0; i < 2; i++ {
		send(t, fw1, sender, "tacoma://h2/alice/receiver", "same")
	}
	if err := fw1.FlushBatches(); err != nil {
		t.Fatal(err)
	}
	if got := recvBody(t, recv, time.Second); got != "same" {
		t.Fatalf("got %q", got)
	}
	deadline := time.Now().Add(time.Second)
	for fw2.ctr.dupDropped.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := fw2.ctr.dupDropped.Value(); got != 1 {
		t.Errorf("dup_dropped = %d, want 1", got)
	}
	if bc, ok := recv.TryRecv(); ok {
		t.Fatalf("duplicate frame delivered: %v", bc)
	}
}

// TestBatchHostileContainers: corrupt, truncated and nested containers
// are audited and dropped without panicking.
func TestBatchHostileContainers(t *testing.T) {
	_, _, fw2 := newBatchPair(t, BatchConfig{FlushEvery: -1}, nil)
	errsBefore := fw2.ctr.errors.Value()
	hostile := [][]byte{
		[]byte("TAXG"),                 // no version
		[]byte("TAXG\x7f\x01"),         // wrong version
		[]byte("TAXG\x01\x00"),         // zero count
		[]byte("TAXG\x01\x02\xff\xff"), // frame length varint runs off the end
		[]byte("TAXG\x01\x01\x10abc"),  // frame shorter than its length
		append([]byte("TAXG\x01\x01\x08"), []byte("TAXGxxxx")...), // nested container
	}
	for _, payload := range hostile {
		fw2.handleInbound("h1", payload)
	}
	if got := fw2.ctr.errors.Value() - errsBefore; got != int64(len(hostile)) {
		t.Errorf("errors counter advanced %d, want %d (every hostile container audited)", got, len(hostile))
	}
	if got := fw2.ctr.delivered.Value(); got != 0 {
		t.Errorf("delivered = %d, want 0", got)
	}
}

// TestBatchGauges: the per-link queue gauges track enqueues and reset
// on flush.
func TestBatchGauges(t *testing.T) {
	_, fw1, _ := newBatchPair(t, BatchConfig{MaxFrames: 100, MaxDelay: time.Hour, FlushEvery: -1}, nil)
	sender, _ := fw1.Register("vm_go", "alice", "sender")
	send(t, fw1, sender, "tacoma://h2/alice/receiver", "one")
	send(t, fw1, sender, "tacoma://h2/alice/receiver", "two")
	snap := fw1.Telemetry().Registry().Snapshot()
	if q := snap.Gauges["fw.batch_queued{host=h1,link=h2}"]; q != 2 {
		t.Fatalf("fw.batch_queued = %d, want 2 (gauges: %v)", q, snap.Gauges)
	}
	if b := snap.Gauges["fw.batch_queued_bytes{host=h1,link=h2}"]; b <= 0 {
		t.Fatalf("fw.batch_queued_bytes = %d, want > 0", b)
	}
	if err := fw1.FlushBatches(); err != nil {
		t.Fatal(err)
	}
	snap = fw1.Telemetry().Registry().Snapshot()
	if q := snap.Gauges["fw.batch_queued{host=h1,link=h2}"]; q != 0 {
		t.Fatalf("after flush fw.batch_queued = %d, want 0", q)
	}
}

// TestBatchSenderPlainReceiver: a batching sender interoperates with a
// receiver that has batching off — containers are unpacked
// unconditionally on the inbound path.
func TestBatchSenderPlainReceiver(t *testing.T) {
	f := newFixture(t)
	f.config = func(c *Config) { c.Batch = &BatchConfig{MaxFrames: 2, FlushEvery: -1, MaxDelay: time.Hour} }
	f.addHost("h1")
	f.config = nil
	f.addHost("h2")
	fw1, fw2 := f.sites["h1"].fw, f.sites["h2"].fw
	sender, _ := fw1.Register("vm_go", "alice", "sender")
	recv, _ := fw2.Register("vm_go", "alice", "receiver")

	send(t, fw1, sender, "tacoma://h2/alice/receiver", "a")
	send(t, fw1, sender, "tacoma://h2/alice/receiver", "b") // threshold flush
	if got := recvBody(t, recv, time.Second); got != "a" {
		t.Fatalf("got %q want a", got)
	}
	if got := recvBody(t, recv, time.Second); got != "b" {
		t.Fatalf("got %q want b", got)
	}
	if fw2.batch != nil {
		t.Fatal("receiver unexpectedly has batching enabled")
	}
}

// TestBatchStressUnderFaultPlan hammers batched mediation with a
// deterministic fault plan (drops, duplicates, jitter, corruption —
// the chaos layer from the fault-injection PR) while concurrent
// senders share link queues and a third goroutine forces flushes. Run
// under -race this is the proof that the batcher's lock discipline
// holds: no deadlock, no lost accounting, dedup still bounds
// deliveries.
func TestBatchStressUnderFaultPlan(t *testing.T) {
	f, fw1, fw2 := newBatchPair(t, BatchConfig{MaxFrames: 8, FlushEvery: time.Millisecond},
		func(c *Config) { c.DedupWindow = 4096 })
	plan := faults.New(faults.Config{
		Seed:      42,
		Drop:      0.15,
		Duplicate: 0.10,
		Delay:     0.20,
		MaxDelay:  500 * time.Microsecond,
		Corrupt:   0.05,
	})
	plan.Bind(f.net)
	sink, _ := fw2.Register("vm_go", "alice", "sink")

	const senders = 8
	const perSender = 100
	var delivered atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := sink.Recv(300 * time.Millisecond); err != nil {
				return
			}
			delivered.Add(1)
		}
	}()

	var sendErrs atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	flusherDone := make(chan struct{})
	// A competing flusher exercises the FlushBatches path against
	// concurrent enqueues.
	go func() {
		defer close(flusherDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = fw1.FlushBatches()
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			reg, err := fw1.Register("vm_go", "alice", fmt.Sprintf("src%d", id))
			if err != nil {
				t.Errorf("register: %v", err)
				return
			}
			for j := 0; j < perSender; j++ {
				bc := briefcase.New()
				bc.SetString(briefcase.FolderSysTarget, "tacoma://h2/alice/sink")
				bc.SetString("BODY", fmt.Sprintf("s%d-%d", id, j))
				// A flush that loses its container to the fault plan
				// reports through Send; that is the expected lossy-network
				// outcome, not a test failure.
				if err := fw1.Send(reg.GlobalURI(), bc); err != nil {
					sendErrs.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-flusherDone
	_ = fw1.FlushBatches()
	<-done

	total := int64(senders * perSender)
	got := delivered.Load()
	if got == 0 {
		t.Fatal("nothing delivered through the faulty link")
	}
	// Every distinct frame is unique (sender id + sequence in the body),
	// so with the dedup window covering the whole run duplicates cannot
	// inflate deliveries past the send count.
	if got > total {
		t.Errorf("delivered %d > sent %d despite dedup window", got, total)
	}
	if st := fw2.ctr.delivered.Value(); st != got {
		t.Errorf("receiver fw.delivered = %d, drained %d", st, got)
	}
	t.Logf("sent=%d delivered=%d sendErrs=%d batchFlushes=%d batchFrames=%d batchRecv=%d dupDropped=%d",
		total, got, sendErrs.Load(), fw1.ctr.batchFlushes.Value(), fw1.ctr.batchFrames.Value(),
		fw2.ctr.batchRecv.Value(), fw2.ctr.dupDropped.Value())
}

// Batch programs drive the batcher directly (runBatchProgram). prog[0]
// picks the transport — odd: copying, so flushed buffers go back to
// their link; even: zero-copy, so every flush is handed over by
// ownership — and each op after it is one byte, kind in bits 0-1 and
// link in bit 2, then its operands:
//
//	kind 0, hi, lo       enqueue one frame of hi<<8|lo bytes (0…64 KiB)
//	kind 1, hi, lo, size enqueue hi<<8|lo frames of size bytes
//	kind 2               FlushBatches
//	kind 3               discardAll
func progFrame(link, size int) []byte { return []byte{byte(link << 2), byte(size >> 8), byte(size)} }
func progBurst(link, n, size int) []byte {
	return []byte{byte(link<<2 | 1), byte(n >> 8), byte(n), byte(size)}
}

var progFlush, progDiscard = []byte{2}, []byte{3}

func batchProg(copying bool, ops ...[]byte) []byte {
	prog := []byte{0}
	if copying {
		prog[0] = 1
	}
	for _, op := range ops {
		prog = append(prog, op...)
	}
	return prog
}

// batchProgs are the differential cases: count varints of one, two and
// three bytes, empty and 64 KiB frames, a batch far past the size the
// link learned from its last one, discards between flushes, and a
// queue that reaches maxBatchFrames and flushes on the threshold.
func batchProgs() [][]byte {
	cases := [][][]byte{
		{progFrame(0, 0), progFlush, progFrame(0, 65535), progFlush},
		{progBurst(0, 127, 3), progFlush, progBurst(0, 128, 3), progFlush},
		{progBurst(1, 16383, 0), progFlush, progBurst(1, 16384, 1), progFlush},
		{progBurst(0, 4, 100), progFlush, progBurst(0, 64, 255), progFrame(0, 40000), progFlush, progBurst(0, 2, 9)},
		{progBurst(0, 10, 50), progBurst(1, 5, 10), progDiscard, progBurst(0, 3, 7), progFlush, progFrame(1, 1000)},
		{progBurst(0, 65535, 0), progBurst(0, 2, 0), progFlush},
	}
	var progs [][]byte
	for _, copying := range []bool{false, true} {
		for _, ops := range cases {
			progs = append(progs, batchProg(copying, ops...))
		}
	}
	return progs
}

// runBatchProgram runs prog against a batching firewall whose transport
// records every container, and holds each container to the reference
// assembly (reference_test.go) of the frames queued on its link since
// that link's last flush or discard: byte-identical, with walkContainer
// handing the frames back in order. A program stops at 8 MiB or 2^17
// frames queued in total.
func runBatchProgram(t *testing.T, prog []byte) {
	if len(prog) == 0 {
		return
	}
	node := &pathNode{addr: "a", peers: map[string]*pathNode{}}
	var transport simnet.Node = node
	copying := prog[0]&1 == 1
	if copying {
		transport = copyingNode{node}
	}
	fw, err := New(Config{
		HostName: "a", Node: transport, Trust: &identity.TrustStore{}, SystemPrincipal: "system",
		Batch: &BatchConfig{MaxFrames: maxBatchFrames, MaxBytes: 1 << 30, MaxDelay: time.Hour, FlushEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fw.Close() }()

	type container struct {
		wire   []byte
		frames [][]byte
	}
	links := [2]string{"b", "c"}
	got, want := map[string][][]byte{}, map[string][]container{}
	node.tap = func(_, to string, c []byte) { got[to] = append(got[to], append([]byte(nil), c...)) }
	var queued [2]container // frames, and the reference queue body in wire
	seal := func(l int) {
		if q := queued[l]; len(q.frames) > 0 {
			want[links[l]] = append(want[links[l]], container{referenceContainer(len(q.frames), q.wire), q.frames})
		}
		queued[l] = container{}
	}
	bytesLeft, framesLeft := 8<<20, 1<<17
	enqueue := func(l, size int) bool {
		if bytesLeft -= size; bytesLeft < 0 || framesLeft == 0 {
			return false
		}
		framesLeft--
		frame := make([]byte, size)
		for i := range frame {
			frame[i] = byte(framesLeft + i)
		}
		if err := fw.batch.enqueue(links[l], frame, false); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
		q := &queued[l]
		q.frames, q.wire = append(q.frames, frame), referenceQueue(q.wire, frame)
		if len(q.frames) == maxBatchFrames {
			seal(l) // enqueue's threshold flush
		}
		return true
	}

	flush := func() {
		if err := fw.FlushBatches(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		seal(0)
		seal(1)
	}

	arity := [4]int{2, 3, 0, 0}
run:
	for ops := prog[1:]; len(ops) > 0; {
		op, l := ops[0]&3, int(ops[0]>>2&1)
		if len(ops) <= arity[op] {
			break
		}
		args := ops[1 : 1+arity[op]]
		ops = ops[1+arity[op]:]
		switch op {
		case 0:
			if !enqueue(l, int(args[0])<<8|int(args[1])) {
				break run
			}
		case 1:
			for n := int(args[0])<<8 | int(args[1]); n > 0; n-- {
				if !enqueue(l, int(args[2])) {
					break run
				}
			}
		case 2:
			flush()
		default:
			fw.batch.discardAll()
			queued = [2]container{}
		}
	}
	flush()

	flushes := 0
	for _, link := range links {
		if len(got[link]) != len(want[link]) {
			t.Fatalf("link %s: %d containers flushed, want %d", link, len(got[link]), len(want[link]))
		}
		for i, c := range want[link] {
			flushes++
			if !bytes.Equal(got[link][i], c.wire) {
				t.Fatalf("link %s container %d (%d frames) differs from the reference assembly", link, i, len(c.frames))
			}
			var walked [][]byte
			if defect, _ := walkContainer(got[link][i], func(f []byte) bool { walked = append(walked, f); return true }); defect != "" {
				t.Fatalf("link %s container %d: %s", link, i, defect)
			}
			if !slices.EqualFunc(walked, c.frames, bytes.Equal) {
				t.Fatalf("link %s container %d: walkContainer returned other frames than were queued", link, i)
			}
		}
	}
	if sends, owned := node.sends, node.ownedSends; copying && (sends != flushes || owned != 0) ||
		!copying && (owned != flushes || sends != 0) {
		t.Fatalf("%d flushes went out as %d Send / %d SendOwned calls", flushes, sends, owned)
	}
}

// TestBatchContainerReference: every container the in-place header
// flushes is the reference assembly's, byte for byte, on both kinds of
// transport — the fixed cases plus seeded random programs.
func TestBatchContainerReference(t *testing.T) {
	progs := batchProgs()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		prog := []byte{byte(i)}
		for j := 0; j < 12; j++ {
			switch link := rng.Intn(2); rng.Intn(5) {
			case 0:
				prog = append(prog, progFrame(link, rng.Intn(1<<16))...)
			case 1, 2:
				prog = append(prog, progBurst(link, rng.Intn(300), rng.Intn(256))...)
			case 3:
				prog = append(prog, progFlush...)
			default:
				prog = append(prog, progDiscard...)
			}
		}
		progs = append(progs, prog)
	}
	for _, prog := range progs {
		runBatchProgram(t, prog)
	}
}

// FuzzBatchContainer runs fuzzed batch programs (runBatchProgram):
// whatever the sequence of enqueues, flushes and discards, every
// flushed container equals the reference assembly of its frames.
func FuzzBatchContainer(f *testing.F) {
	for _, prog := range batchProgs() {
		f.Add(prog)
	}
	f.Fuzz(runBatchProgram)
}
