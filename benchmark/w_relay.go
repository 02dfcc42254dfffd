package main

import (
	"fmt"
	"math/rand"
	"time"

	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/identity"
	"tax/internal/simnet"
)

const (
	relayWindow = 64 // frames in flight; a multiple of relayBatch
	relayBatch  = 16 // firewall.BatchConfig.MaxFrames on the origin
)

var relayHosts = []string{"a", "b", "c", "d"}

// relayStream is the relay_stream workload: the chain a → b → c → d on
// in-process LAN100, relays on b and c, batching on a (the topology of
// internal/bench/hotpath_forward.go), one sender streaming 4 KiB frames
// to a sink on d under a window.
type relayStream struct {
	tr       *tracer
	net      *simnet.Network
	fws      map[string]*firewall.Firewall
	src      *firewall.Registration
	dst      *firewall.Registration
	bc       *briefcase.Briefcase
	window   chan struct{}
	sentAt   []time.Time // send time of frame seq, indexed seq % len
	seq      int64       // next sequence number to send
	slice    chan sliceReq
	sinkDone chan struct{}
}

// sliceReq asks the sink to account the next n deliveries into rec and
// signal done after the last.
type sliceReq struct {
	n    int
	rec  *recorder
	done chan struct{}
}

func (w *relayStream) sliceOps() int { return 16_800 }

func (w *relayStream) setup(seed int64, tr *tracer) error {
	w.tr = tr
	w.net = simnet.New(simnet.LAN100)
	sys, err := identity.NewPrincipal("system")
	if err != nil {
		return err
	}
	trust := &identity.TrustStore{}
	trust.AddPrincipal(sys, identity.System)
	next := map[string]string{"a": "b", "b": "c", "c": "d", "d": "d"}
	w.fws = map[string]*firewall.Firewall{}
	for _, name := range relayHosts {
		host, err := w.net.AddHost(name)
		if err != nil {
			return err
		}
		self, hop := name, next[name]
		cfg := firewall.Config{
			HostName: name, Node: traceNode(host, tr), Clock: host.Clock(),
			Trust: trust, SystemPrincipal: "system",
			Relay: name == "b" || name == "c",
			Resolve: func(host string, _ int) (string, error) {
				if host == self {
					return self, nil
				}
				return hop, nil
			},
		}
		if name == "a" {
			// Size-triggered flushes only: the window is a multiple of
			// the batch, so the stream never waits on a timer.
			cfg.Batch = &firewall.BatchConfig{MaxFrames: relayBatch, MaxBytes: 1 << 20, MaxDelay: time.Hour, FlushEvery: -1}
		}
		fw, err := firewall.New(cfg)
		if err != nil {
			return err
		}
		w.fws[name] = fw
	}
	if w.src, err = w.fws["a"].Register("vm", "system", "src"); err != nil {
		return err
	}
	if w.dst, err = w.fws["d"].Register("vm", "system", "dst"); err != nil {
		return err
	}
	body := make([]byte, 4<<10)
	rand.New(rand.NewSource(seed)).Read(body)
	w.bc = briefcase.New()
	w.bc.Ensure("BODY").Append(body)
	w.bc.SetString(briefcase.FolderSysTarget, "tacoma://d/system/dst")

	w.window = make(chan struct{}, relayWindow)
	w.sentAt = make([]time.Time, relayWindow)
	w.slice = make(chan sliceReq)
	w.sinkDone = make(chan struct{})
	go w.sink(len(body))
	return nil
}

// sink is the agent on d: it checks that frames arrive complete and in
// order, times them, and releases the window.
func (w *relayStream) sink(bodyLen int) {
	defer close(w.sinkDone)
	var want int64
	for req := range w.slice {
		for i := 0; i < req.n; i++ {
			bc, err := w.dst.Recv(10 * time.Second)
			if err != nil {
				// The stream is broken; fail the rest of the slice.
				for ; i < req.n; i++ {
					req.rec.fail(err)
				}
				break
			}
			d := time.Since(w.sentAt[want%relayWindow])
			seq, _ := bc.GetInt("SEQ")
			body, ferr := bc.Folder("BODY")
			switch {
			case seq != want:
				req.rec.fail(fmt.Errorf("frame %d arrived where %d was due", seq, want))
			case ferr != nil || body.Size() < bodyLen:
				req.rec.fail(fmt.Errorf("frame %d lost its body", seq))
			default:
				req.rec.ok(d)
			}
			want++
			<-w.window
		}
		close(req.done)
	}
}

// run streams n frames (a multiple of the batch size, so size-triggered
// flushes alone deliver them all) and waits for the last delivery.
func (w *relayStream) run(n int, rec *recorder) error {
	if n%relayBatch != 0 {
		return fmt.Errorf("relay_stream: slice of %d frames is not a multiple of the batch size %d", n, relayBatch)
	}
	done := make(chan struct{})
	w.slice <- sliceReq{n: n, rec: rec, done: done}
	fw, sender := w.fws["a"], w.src.GlobalURI()
	for i := 0; i < n; i++ {
		w.window <- struct{}{}
		root := w.tr.beginOp()
		w.bc.SetInt("SEQ", w.seq)
		w.sentAt[w.seq%relayWindow] = time.Now()
		w.seq++
		err := fw.Send(sender, w.bc)
		w.tr.endOp(root)
		if err != nil {
			return fmt.Errorf("relay_stream: send %d: %w", w.seq-1, err)
		}
	}
	<-done
	return nil
}

// check: the relays forwarded every frame verbatim, none was decoded
// mid-path, parked or dropped.
func (w *relayStream) check() error {
	if err := w.fws["a"].FlushBatches(); err != nil {
		return err
	}
	for _, name := range []string{"b", "c"} {
		reg := w.fws[name].Telemetry().Registry()
		if got := reg.Counter("fw.relayed", "host", name).Value(); got != w.seq {
			return fmt.Errorf("relay %s forwarded %d frames of %d", name, got, w.seq)
		}
	}
	for _, name := range relayHosts {
		if err := wantZero(w.fws[name], "fw.errors", "fw.queued"); err != nil {
			return err
		}
	}
	return nil
}

func (w *relayStream) counters() map[string]float64 {
	return fwCounters(w.fws["a"], w.fws["b"], w.fws["c"], w.fws["d"])
}

func (w *relayStream) close() {
	if w.slice != nil {
		close(w.slice)
	}
	for _, fw := range w.fws {
		_ = fw.Close()
	}
	if w.net != nil {
		_ = w.net.Close()
	}
	if w.sinkDone != nil {
		<-w.sinkDone
	}
}
