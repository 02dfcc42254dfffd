package telemetry

import (
	"sync"
	"testing"
	"time"
)

// TestHistogramQuantiles pins the bucket-interpolation quantile estimates.
func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q")
	// 100 observations spread evenly through the 1–2 ms bucket: every
	// quantile must interpolate inside [1ms, 2ms].
	for i := 0; i < 100; i++ {
		h.Observe(1500 * time.Microsecond)
	}
	s := r.Snapshot().Histograms["q"]
	for _, tc := range []struct {
		q        float64
		min, max time.Duration
	}{
		{0.50, 1 * time.Millisecond, 2 * time.Millisecond},
		{0.95, 1 * time.Millisecond, 2 * time.Millisecond},
		{0.99, 1 * time.Millisecond, 2 * time.Millisecond},
	} {
		got := s.Quantile(tc.q)
		if got < tc.min || got > tc.max {
			t.Errorf("q%v = %v, want within [%v, %v]", tc.q, got, tc.min, tc.max)
		}
	}
	if s.P50 != s.Quantile(0.50) || s.P95 != s.Quantile(0.95) || s.P99 != s.Quantile(0.99) {
		t.Errorf("snapshot quantile fields disagree with Quantile(): %v/%v/%v",
			s.P50, s.P95, s.P99)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Errorf("quantiles not monotone: p50=%v p95=%v p99=%v", s.P50, s.P95, s.P99)
	}
}

func TestHistogramQuantileSpread(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("spread")
	// 90 fast, 9 medium, 1 slow: p50 in the fast bucket, p95 in the medium,
	// p99 at or past the medium.
	for i := 0; i < 90; i++ {
		h.Observe(15 * time.Microsecond)
	}
	for i := 0; i < 9; i++ {
		h.Observe(800 * time.Microsecond)
	}
	h.Observe(70 * time.Millisecond)
	s := r.Snapshot().Histograms["spread"]
	if s.P50 > 20*time.Microsecond {
		t.Errorf("p50 = %v, want <= 20µs", s.P50)
	}
	if s.P95 < 500*time.Microsecond || s.P95 > 1*time.Millisecond {
		t.Errorf("p95 = %v, want in (500µs, 1ms]", s.P95)
	}
	if s.P99 < 500*time.Microsecond {
		t.Errorf("p99 = %v, want >= 500µs", s.P99)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	// A single overflow observation clamps to the last boundary rather than
	// inventing a value beyond what the buckets can support.
	r := NewRegistry()
	h := r.Histogram("ovf")
	h.Observe(5 * time.Minute)
	s := r.Snapshot().Histograms["ovf"]
	last := s.Bounds[len(s.Bounds)-1]
	if got := s.Quantile(0.99); got != last {
		t.Errorf("overflow quantile = %v, want clamp to %v", got, last)
	}
}

// TestEventLogSnapshotTotalConsistency is the satellite-3 stress test: under
// concurrent Append and snapshotTotal at capacity, the snapshot length and
// total read under one lock must always agree (len == min(total, cap)), and
// the retained window must be the contiguous tail of the sequence. Separate
// Total() + Snapshot() calls cannot promise this mid-wrap — snapshotTotal
// exists precisely to close that race. Run with -race.
func TestEventLogSnapshotTotalConsistency(t *testing.T) {
	const capacity = 64
	l := NewEventLog(capacity)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					l.Append(Event{Type: EventAllow})
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		snap, total := l.snapshotTotal()
		want := int(total)
		if total > capacity {
			want = capacity
		}
		if len(snap) != want {
			t.Fatalf("iter %d: len(snapshot) = %d, total = %d, want len %d",
				i, len(snap), total, want)
		}
		// The window is the contiguous tail ending at total.
		for j, e := range snap {
			if wantSeq := total - uint64(len(snap)) + uint64(j) + 1; e.Seq != wantSeq {
				t.Fatalf("iter %d: snap[%d].Seq = %d, want %d", i, j, e.Seq, wantSeq)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestSpanStoreSnapshotTotalConsistency mirrors the event-log stress test
// for the span ring.
func TestSpanStoreSnapshotTotalConsistency(t *testing.T) {
	const capacity = 64
	st := NewSpanStore(capacity)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					st.add(SpanRecord{TraceID: "t", Name: "op"})
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		snap, total := st.snapshotTotal()
		want := int(total)
		if total > capacity {
			want = capacity
		}
		if len(snap) != want {
			t.Fatalf("iter %d: len(snapshot) = %d, total = %d, want len %d",
				i, len(snap), total, want)
		}
		for j, r := range snap {
			if wantSeq := total - uint64(len(snap)) + uint64(j) + 1; r.Seq != wantSeq {
				t.Fatalf("iter %d: snap[%d].Seq = %d, want %d", i, j, r.Seq, wantSeq)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestRingSinkAndReset checks the push hook fires per append with the Seq
// stamped, and that Reset clears the window without rewinding sequences.
func TestRingSinkAndReset(t *testing.T) {
	l := NewEventLog(8)
	var mu sync.Mutex
	var seen []uint64
	l.SetSink(func(e Event) {
		mu.Lock()
		seen = append(seen, e.Seq)
		mu.Unlock()
	})
	for i := 0; i < 3; i++ {
		l.Append(Event{Type: EventDeny})
	}
	mu.Lock()
	if len(seen) != 3 || seen[0] != 1 || seen[2] != 3 {
		t.Fatalf("sink saw %v, want [1 2 3]", seen)
	}
	mu.Unlock()

	l.Reset()
	if snap, total := l.snapshotTotal(); len(snap) != 0 || total != 3 {
		t.Fatalf("after reset: len=%d total=%d, want 0/3", len(snap), total)
	}
	l.Append(Event{Type: EventDeny})
	if snap, _ := l.snapshotTotal(); len(snap) != 1 || snap[0].Seq != 4 {
		t.Fatalf("post-reset append: %+v, want Seq 4", snap)
	}

	st := NewSpanStore(8)
	var spanSeqs []uint64
	st.SetSink(func(r SpanRecord) { spanSeqs = append(spanSeqs, r.Seq) })
	st.add(SpanRecord{TraceID: "t"})
	st.add(SpanRecord{TraceID: "t"})
	if len(spanSeqs) != 2 || spanSeqs[1] != 2 {
		t.Fatalf("span sink saw %v, want [1 2]", spanSeqs)
	}
	st.Reset()
	if snap, total := st.snapshotTotal(); len(snap) != 0 || total != 2 {
		t.Fatalf("span reset: len=%d total=%d, want 0/2", len(snap), total)
	}
}
