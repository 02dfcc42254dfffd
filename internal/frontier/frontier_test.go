package frontier

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tax/internal/cabinet"
	"tax/internal/vclock"
)

func volatileFrontier(t *testing.T) *Frontier {
	t.Helper()
	f, err := New(Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func TestClaimOrderIsDepthThenURL(t *testing.T) {
	f := volatileFrontier(t)
	if _, _, err := f.Add([]Link{
		{URL: "http://h/b", Depth: 1},
		{URL: "http://h/z", Depth: 0},
		{URL: "http://h/a", Depth: 1},
	}); err != nil {
		t.Fatal(err)
	}
	var got []string
	for i := 0; i < 3; i++ {
		cl, ok := f.Claim("w")
		if !ok {
			t.Fatalf("claim %d failed", i)
		}
		got = append(got, cl.URL)
		if _, err := f.Complete(cl.URL, "w", &PageRecord{URL: cl.URL, Depth: cl.Depth}); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"http://h/z", "http://h/a", "http://h/b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("claim order %v, want %v", got, want)
	}
	if !f.Drained() {
		t.Fatal("frontier should be drained")
	}
}

func TestClaimReissueAfterLostReply(t *testing.T) {
	f := volatileFrontier(t)
	f.Add([]Link{{URL: "http://h/a", Depth: 0}})
	cl1, ok := f.Claim("w1")
	if !ok {
		t.Fatal("first claim failed")
	}
	// The same worker asking again (its reply was lost) gets the same
	// URL, not a second one.
	cl2, ok := f.Claim("w1")
	if !ok || cl2.URL != cl1.URL {
		t.Fatalf("reclaim got %+v, want %q", cl2, cl1.URL)
	}
	// A different worker gets nothing — the URL is still claimed.
	if cl, ok := f.Claim("w2"); ok {
		t.Fatalf("w2 stole claimed URL %q", cl.URL)
	}
	if c := f.Counts(); c.Reclaims != 1 {
		t.Fatalf("Reclaims = %d, want 1", c.Reclaims)
	}
}

func TestCompleteIsIdempotent(t *testing.T) {
	f := volatileFrontier(t)
	f.Add([]Link{{URL: "http://h/a", Depth: 0}})
	cl, _ := f.Claim("w")
	rec := &PageRecord{URL: cl.URL, Depth: cl.Depth, Status: 200}
	first, err := f.Complete(cl.URL, "w", rec)
	if err != nil || !first {
		t.Fatalf("first Complete = (%v, %v)", first, err)
	}
	again, err := f.Complete(cl.URL, "w", rec)
	if err != nil || again {
		t.Fatalf("dup Complete = (%v, %v), want absorbed", again, err)
	}
	if c := f.Counts(); c.DupCompletions != 1 || c.Done != 1 {
		t.Fatalf("counts %+v", c)
	}
}

func TestDepthLoweringReturnsDoneRecords(t *testing.T) {
	f := volatileFrontier(t)
	f.Add([]Link{{URL: "http://h/deep", Depth: 3}})
	cl, _ := f.Claim("w")
	rec := &PageRecord{URL: cl.URL, Depth: cl.Depth, Status: 200, Links: []Link{{URL: "http://h/kid", Referrer: cl.URL}}}
	f.Complete(cl.URL, "w", rec)
	// Re-discovered shallower: the done record is lowered and returned
	// so the caller can re-offer its out-links at the new depth.
	_, lowered, err := f.Add([]Link{{URL: "http://h/deep", Depth: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(lowered) != 1 || lowered[0].Depth != 1 {
		t.Fatalf("lowered = %+v, want the record at depth 1", lowered)
	}
	// Re-discovered deeper: no-op.
	_, lowered, _ = f.Add([]Link{{URL: "http://h/deep", Depth: 2}})
	if len(lowered) != 0 {
		t.Fatalf("deeper rediscovery lowered %+v", lowered)
	}
}

// upTo admits links no deeper than max.
func upTo(max int) func(string, int) bool {
	return func(_ string, depth int) bool { return depth <= max }
}

// TestCompleteNextUsesFrontierDepth pins the stale-depth interleaving:
// a URL claimed at depth 3 is re-discovered at depth 2 while its fetch
// is in flight, and the worker's record still says 3. Under MaxDepth 3
// its link must be admitted at depth 3, not refused at a stale 4.
func TestCompleteNextUsesFrontierDepth(t *testing.T) {
	f := volatileFrontier(t)
	f.Add([]Link{{URL: "http://h/u", Depth: 3}})
	cl, _ := f.Claim("w")
	if _, _, err := f.Add([]Link{{URL: "http://h/u", Depth: 2}}); err != nil {
		t.Fatal(err)
	}
	rec := &PageRecord{URL: cl.URL, Depth: cl.Depth, Status: 200, Links: []Link{{URL: "http://h/k", Referrer: cl.URL}}}
	next, err := f.CompleteNext("w", rec, upTo(3))
	if err != nil {
		t.Fatal(err)
	}
	if next == nil || next.URL != "http://h/k" || next.Depth != 3 {
		t.Fatalf("next claim %+v, want http://h/k at depth 3", next)
	}
	if got, _ := f.Record(cl.URL); got.Depth != 2 {
		t.Fatalf("record depth %d, want the frontier's 2", got.Depth)
	}
}

// TestCompleteNextReexpandsLowered: a completion whose links lower a
// done record re-offers that record's links at its new depth, so a
// link refused at the old depth is admitted now.
func TestCompleteNextReexpandsLowered(t *testing.T) {
	f := volatileFrontier(t)
	f.Add([]Link{{URL: "http://h/a", Depth: 3}, {URL: "http://h/b", Depth: 1}})
	admit := upTo(3)
	b, _ := f.Claim("w")
	a, _ := f.Claim("w2")
	// a completes at depth 3: its child at 4 is refused.
	next, err := f.CompleteNext("w2", &PageRecord{URL: a.URL, Depth: 3, Links: []Link{{URL: "http://h/x", Referrer: a.URL}}}, admit)
	if err != nil || next != nil {
		t.Fatalf("CompleteNext(a) = %+v, %v; want nothing to lease", next, err)
	}
	// b at depth 1 links to a: a drops to 2, and x enters at 3.
	next, err = f.CompleteNext("w", &PageRecord{URL: b.URL, Depth: 1, Links: []Link{{URL: "http://h/a", Referrer: b.URL}}}, admit)
	if err != nil {
		t.Fatal(err)
	}
	if next == nil || next.URL != "http://h/x" || next.Depth != 3 {
		t.Fatalf("next claim %+v, want http://h/x at depth 3", next)
	}
	if rec, _ := f.Record("http://h/a"); rec.Depth != 2 {
		t.Fatalf("a's depth %d, want 2", rec.Depth)
	}
}

// TestCompleteNextIsOneTransaction: completing, admitting and leasing
// is one WAL transaction; a retried completion (its reply lost) adds
// none and re-issues the same next claim.
func TestCompleteNextIsOneTransaction(t *testing.T) {
	store := cabinet.NewStore(cabinet.Options{Clock: vclock.NewVirtual(), SnapshotEvery: -1})
	f, err := New(Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	f.Add([]Link{{URL: "http://h/", Depth: 0}})
	cl, _ := f.Claim("w")
	rec := &PageRecord{URL: cl.URL, Status: 200, Links: []Link{{URL: "http://h/a"}, {URL: "http://h/b"}}}
	before := store.Seq()
	next, err := f.CompleteNext("w", rec, upTo(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := store.Seq() - before; got != 1 {
		t.Fatalf("CompleteNext committed %d transactions, want 1", got)
	}
	again, err := f.CompleteNext("w", rec, upTo(1))
	if err != nil {
		t.Fatal(err)
	}
	if store.Seq()-before != 1 || again == nil || again.URL != next.URL {
		t.Fatalf("retry committed %d and leased %+v, want 0 and %q", store.Seq()-before-1, again, next.URL)
	}
	if c := f.Counts(); c.DupCompletions != 1 || c.Reclaims != 1 || c.Pending != 1 || c.Claimed != 1 {
		t.Fatalf("counts %+v", c)
	}
	// The same state recovers from the store.
	g, err := New(Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if cl2, ok := g.Claim("w"); !ok || cl2.URL != next.URL {
		t.Fatalf("recovered claim %+v, want %q", cl2, next.URL)
	}
}

// TestVolatileFrontierEncodesNothing: without a store no transition
// builds a write set.
func TestVolatileFrontierEncodesNothing(t *testing.T) {
	f := volatileFrontier(t)
	f.Add([]Link{{URL: "http://h/", Depth: 0}})
	cl, _ := f.Claim("w")
	next, _ := f.CompleteNext("w", &PageRecord{URL: cl.URL, Links: []Link{{URL: "http://h/a"}}}, upTo(1))
	f.Fail(next.URL, "w", next.Attempts, "wb_fetch_failed", "boom", true)
	f.Journal(Failure{URL: "http://h/z"})
	if cap(f.tx) != 0 {
		t.Fatalf("volatile frontier built a write set of capacity %d", cap(f.tx))
	}
}

func TestFailRetriesThenTurnsTerminal(t *testing.T) {
	f, err := New(Options{MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.Add([]Link{{URL: "http://h/flaky", Depth: 0}})
	cl, _ := f.Claim("w")
	requeued, err := f.Fail(cl.URL, "w", cl.Attempts, "wb_fetch_failed", "boom", true)
	if err != nil || !requeued {
		t.Fatalf("first Fail = (%v, %v), want requeued", requeued, err)
	}
	cl2, ok := f.Claim("w")
	if !ok || cl2.Attempts != 1 {
		t.Fatalf("reclaim after fail = %+v", cl2)
	}
	requeued, err = f.Fail(cl2.URL, "w", cl2.Attempts, "wb_fetch_failed", "boom", true)
	if err != nil || requeued {
		t.Fatalf("second Fail = (%v, %v), want terminal", requeued, err)
	}
	c := f.Counts()
	if c.TerminalFailed != 1 || c.Journal != 2 || c.Pending != 0 {
		t.Fatalf("counts %+v", c)
	}
	// Terminal URLs are not re-admitted.
	fresh, _, _ := f.Add([]Link{{URL: "http://h/flaky", Depth: 0}})
	if fresh != 0 {
		t.Fatal("terminal URL re-admitted")
	}
	if !f.Drained() {
		t.Fatal("should be drained")
	}
}

func TestClaimWaitBlocksUntilAddAndDrains(t *testing.T) {
	f := volatileFrontier(t)
	f.Add([]Link{{URL: "http://h/a", Depth: 0}})
	var wg sync.WaitGroup
	urls := make(chan string, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", w)
			for {
				cl, state := f.ClaimWait(id)
				if state != WaitClaimed {
					return
				}
				urls <- cl.URL
				if cl.URL == "http://h/a" {
					f.Add([]Link{{URL: "http://h/b", Depth: 1}, {URL: "http://h/c", Depth: 1}})
				}
				f.Complete(cl.URL, id, &PageRecord{URL: cl.URL, Depth: cl.Depth})
			}
		}(w)
	}
	wg.Wait()
	close(urls)
	seen := map[string]int{}
	for u := range urls {
		seen[u]++
	}
	for u, n := range seen {
		if n != 1 {
			t.Fatalf("url %q claimed %d times", u, n)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("claimed %d urls, want 3", len(seen))
	}
}

func TestDurableRecoveryRoundTrip(t *testing.T) {
	store := cabinet.NewStore(cabinet.Options{Clock: vclock.NewVirtual(), SnapshotEvery: -1})
	f, err := New(Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	f.Add([]Link{{URL: "http://h/a", Depth: 0, Referrer: ""}})
	cl, _ := f.Claim("w1")
	rec := &PageRecord{URL: cl.URL, Depth: 0, Status: 200, Bytes: 17, Type: "text/html",
		AgeDays: 3, FetchCost: 5 * time.Millisecond, Digest: "200|17|3",
		Links: []Link{{URL: "http://h/b", Referrer: "http://h/a"}}}
	f.Complete(cl.URL, "w1", rec)
	f.Add([]Link{{URL: "http://h/b", Depth: 1, Referrer: "http://h/a"}, {URL: "http://h/c", Depth: 1}})
	f.Claim("w2") // leaves http://h/b claimed by w2
	f.Journal(Failure{URL: "http://h/x", Depth: 2, Code: "wb_depth_unstable", Reason: "beyond stable depth"})

	// Service-style recovery (AdoptClaims=false): the claim survives,
	// keyed to its worker.
	g, err := New(Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := g.Record("http://h/a"); !reflect.DeepEqual(got, rec) {
		t.Fatalf("recovered record %+v, want %+v", got, rec)
	}
	cl2, ok := g.Claim("w2")
	if !ok || cl2.URL != "http://h/b" {
		t.Fatalf("w2's claim not re-issued after recovery: %+v", cl2)
	}
	if c := g.Counts(); c.Pending != 1 || c.Claimed != 1 || c.Done != 1 || c.TerminalFailed != 1 {
		t.Fatalf("recovered counts %+v", c)
	}

	// Local-crawl recovery (AdoptClaims=true): the claim folds back to
	// pending — its worker died with the process.
	h, err := New(Options{Store: store, AdoptClaims: true})
	if err != nil {
		t.Fatal(err)
	}
	if c := h.Counts(); c.Pending != 2 || c.Claimed != 0 {
		t.Fatalf("adopted counts %+v", c)
	}
}

func TestBeginRecrawlStagesPriors(t *testing.T) {
	store := cabinet.NewStore(cabinet.Options{Clock: vclock.NewVirtual(), SnapshotEvery: -1})
	f, _ := New(Options{Store: store})
	f.Add([]Link{{URL: "http://h/a", Depth: 0}})
	cl, _ := f.Claim("w")
	f.Complete(cl.URL, "w", &PageRecord{URL: cl.URL, Depth: 0, Status: 200, Digest: "200|9|1"})
	if err := f.BeginRecrawl(); err != nil {
		t.Fatal(err)
	}
	f.Add([]Link{{URL: "http://h/a", Depth: 0}})
	cl, ok := f.Claim("w")
	if !ok || cl.Prior == nil || cl.Prior.Digest != "200|9|1" {
		t.Fatalf("claim after recrawl lacks prior: %+v", cl)
	}
	// The staged prior survives a reopen too.
	g, _ := New(Options{Store: store, AdoptClaims: true})
	if r, ok := g.Prior("http://h/a"); !ok || r.Digest != "200|9|1" {
		t.Fatalf("prior not durable: %+v ok=%v", r, ok)
	}
}

// TestCrashPointSweep kills the store at every WAL append of a fixed
// crawl workload, recovers, resumes, and asserts exactly-once per URL —
// the cabinet sweep pattern applied to the frontier's transactions.
func TestCrashPointSweep(t *testing.T) {
	links := []Link{
		{URL: "http://h/", Depth: 0},
	}
	children := map[string][]Link{
		"http://h/":  {{URL: "http://h/a", Referrer: "http://h/"}, {URL: "http://h/b", Referrer: "http://h/"}},
		"http://h/a": {{URL: "http://h/c", Referrer: "http://h/a"}},
		"http://h/b": {{URL: "http://h/c", Referrer: "http://h/b"}},
		"http://h/c": nil,
	}
	// drive runs the crawl loop until drained or the store dies.
	drive := func(f *Frontier, fetched map[string]int) error {
		for {
			cl, ok := f.Claim("w")
			if !ok {
				return nil
			}
			fetched[cl.URL]++
			var out []Link
			for _, l := range children[cl.URL] {
				out = append(out, Link{URL: l.URL, Referrer: l.Referrer, Depth: cl.Depth + 1})
			}
			if len(out) > 0 {
				if _, _, err := f.Add(out); err != nil {
					return err
				}
			}
			rec := &PageRecord{URL: cl.URL, Depth: cl.Depth, Status: 200, Links: children[cl.URL]}
			if _, err := f.Complete(cl.URL, "w", rec); err != nil {
				return err
			}
		}
	}

	// First pass: count total appends of a clean run.
	clean := cabinet.NewStore(cabinet.Options{Clock: vclock.NewVirtual(), SnapshotEvery: -1})
	f, err := New(Options{Store: clean})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Add(links); err != nil {
		t.Fatal(err)
	}
	fetched := map[string]int{}
	if err := drive(f, fetched); err != nil {
		t.Fatal(err)
	}
	total := int(clean.Seq())
	if total < 8 {
		t.Fatalf("clean run committed only %d txns", total)
	}
	wantDone := len(f.Records())

	for k := 1; k <= total; k++ {
		k := k
		t.Run(fmt.Sprintf("append%02d", k), func(t *testing.T) {
			store := cabinet.NewStore(cabinet.Options{Clock: vclock.NewVirtual(), SnapshotEvery: -1})
			var appends int32
			crashed := false
			store.SetAppendHook(func(seq uint64) {
				if atomic.AddInt32(&appends, 1) != int32(k) {
					return
				}
				crashed = true
				store.Disk().Crash()
			})
			f, err := New(Options{Store: store})
			if err != nil {
				t.Fatal(err)
			}
			fetched := map[string]int{}
			f.Add(links)
			drive(f, fetched) // dies somewhere after the crash; errors expected
			if !crashed {
				t.Fatalf("append %d never reached", k)
			}
			store.SetAppendHook(nil)
			if _, err := store.Reopen(); err != nil {
				t.Fatalf("Reopen: %v", err)
			}
			// Resume as a local crawl: orphaned claims fold back to
			// pending and are refetched (their fetch never completed, so
			// a refetch preserves exactly-once *completion*).
			g, err := New(Options{Store: store, AdoptClaims: true})
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			g.Add(links)
			if err := drive(g, fetched); err != nil {
				t.Fatalf("resume: %v", err)
			}
			recs := g.Records()
			if len(recs) != wantDone {
				t.Fatalf("resume finished with %d records, want %d", len(recs), wantDone)
			}
			for _, r := range recs {
				if fetched[r.URL] == 0 {
					t.Fatalf("url %q completed but never fetched", r.URL)
				}
			}
			// Exactly-once completion: every URL has exactly one done
			// record; double-fetch is allowed only for a claim whose
			// completion had not committed when the host died.
			seen := map[string]bool{}
			for _, r := range recs {
				if seen[r.URL] {
					t.Fatalf("url %q completed twice", r.URL)
				}
				seen[r.URL] = true
			}
			for url, n := range fetched {
				if n > 2 {
					t.Fatalf("url %q fetched %d times across crash+resume", url, n)
				}
				if !seen[url] {
					t.Fatalf("url %q fetched but never completed", url)
				}
			}
		})
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	rec := &PageRecord{
		URL: "http://h/p", Referrer: "http://h/", Depth: 2, Status: 200,
		Bytes: 4096, Type: "application/pdf", AgeDays: 211,
		FetchCost: 1234567 * time.Nanosecond, Digest: "200|4096|211", Revalidated: true,
		Links: []Link{{URL: "http://h/q", Referrer: "http://h/p"}, {URL: "http://x/", Referrer: "http://h/p"}},
	}
	got, err := DecodeRecord(rec.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip %+v != %+v", got, rec)
	}
	if _, err := DecodeRecord(rec.Encode()[:7]); err == nil {
		t.Fatal("truncated record decoded")
	}
	if _, err := DecodeRecord(nil); err == nil {
		t.Fatal("empty record decoded")
	}
	if _, err := DecodeRecord(append(rec.Encode(), 0)); err == nil {
		t.Fatal("record with a trailing byte decoded")
	}
}

// TestDecodeRecordRejectsOverflow: a uvarint too large for its field is
// an error, not a negative depth that passes every depth <= MaxDepth.
func TestDecodeRecordRejectsOverflow(t *testing.T) {
	huge := func(field int) []byte {
		b := []byte{recordVersion}
		b = appendString(b, "http://h/p")
		b = appendString(b, "")
		for i := 0; i < 3; i++ { // depth, status, bytes
			v := uint64(0)
			if i == field {
				v = 1 << 63
			}
			b = binary.AppendUvarint(b, v)
		}
		b = appendString(b, "")
		b = binary.AppendUvarint(b, 0) // age
		b = binary.AppendUvarint(b, 0) // fetch cost
		b = appendString(b, "")
		return append(b, 0, 0) // not revalidated, no links
	}
	if _, err := DecodeRecord(huge(-1)); err != nil {
		t.Fatalf("well-formed record: %v", err)
	}
	for field, name := range []string{"depth", "status", "bytes"} {
		if r, err := DecodeRecord(huge(field)); err == nil {
			t.Errorf("%s 1<<63 decoded as %+v", name, r)
		}
	}
}

// TestRecordCodecAllocs: a record of ten links encodes into one
// allocation and decodes in three (one copy of its bytes, the record,
// its links). A string per field and two per link made it 30.
func TestRecordCodecAllocs(t *testing.T) {
	r := &PageRecord{URL: "http://h/d1/p001.html", Referrer: "http://h/", Depth: 1, Status: 200,
		Bytes: 3145, Type: "text/html", AgeDays: 17, FetchCost: 4 * time.Millisecond, Digest: "200|3145|17"}
	for i := 0; i < 10; i++ {
		r.Links = append(r.Links, Link{URL: fmt.Sprintf("http://h/d2/p%03d.html", i), Referrer: r.URL})
	}
	enc := r.Encode()
	if n := testing.AllocsPerRun(100, func() { enc = r.Encode() }); n != 1 {
		t.Errorf("Encode: %v allocs, want 1", n)
	}
	var err error
	if n := testing.AllocsPerRun(100, func() { _, err = DecodeRecord(enc) }); n != 3 || err != nil {
		t.Errorf("DecodeRecord: %v allocs (%v), want 3", n, err)
	}
}

// FuzzDecodeRecord: whatever decodes re-encodes, into exactly its size,
// to bytes that decode to an equal record; and the record does not
// alias its input, which a caller may overwrite once it is decoded.
func FuzzDecodeRecord(f *testing.F) {
	f.Add((&PageRecord{URL: "http://h/p", Referrer: "http://h/", Depth: 2, Status: 200, Bytes: 4096,
		Type: "text/html", AgeDays: 9, FetchCost: time.Millisecond, Digest: "200|4096|9", Revalidated: true,
		Links: []Link{{URL: "http://h/q", Referrer: "http://h/p"}}}).Encode())
	f.Add((&PageRecord{URL: "http://h/404", Status: 404}).Encode())
	f.Add([]byte{recordVersion, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeRecord(b)
		if err != nil {
			return
		}
		if r.Depth < 0 || r.Status < 0 || r.Bytes < 0 || r.AgeDays < 0 || r.FetchCost < 0 {
			t.Fatalf("decoded a negative field: %+v", r)
		}
		enc := r.Encode()
		if len(enc) != cap(enc) {
			t.Fatalf("Encode allocated %d bytes for a %d-byte record", cap(enc), len(enc))
		}
		again, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-encoding of %+v does not decode: %v", r, err)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("round trip %+v != %+v", again, r)
		}
		for i := range b {
			b[i] ^= 0xff
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("overwriting the input changed the record to %+v", r)
		}
	})
}

func TestLimiterSpacesSameHostOnly(t *testing.T) {
	l := NewLimiter(10 * time.Millisecond)
	if w := l.Reserve("a", 0); w != 0 {
		t.Fatalf("first fetch waited %v", w)
	}
	if w := l.Reserve("a", 0); w != 10*time.Millisecond {
		t.Fatalf("second same-host fetch waited %v, want 10ms", w)
	}
	if w := l.Reserve("b", 0); w != 0 {
		t.Fatalf("other-host fetch waited %v", w)
	}
	// A worker arriving after the slot passes waits nothing.
	if w := l.Reserve("a", 25*time.Millisecond); w != 0 {
		t.Fatalf("late fetch waited %v", w)
	}
	var nilLim *Limiter
	if w := nilLim.Reserve("a", 0); w != 0 {
		t.Fatal("nil limiter waited")
	}
}

func TestModelMakespan(t *testing.T) {
	recs := []*PageRecord{
		{URL: "http://a/1", Depth: 0, FetchCost: 10 * time.Millisecond},
		{URL: "http://a/2", Depth: 1, FetchCost: 10 * time.Millisecond},
		{URL: "http://b/1", Depth: 1, FetchCost: 10 * time.Millisecond},
		{URL: "http://b/2", Depth: 1, FetchCost: 10 * time.Millisecond},
	}
	if got := ModelMakespan(recs, 1, 0); got != 40*time.Millisecond {
		t.Fatalf("serial makespan %v", got)
	}
	// 4 workers, no politeness: every record dispatches at once.
	if got := ModelMakespan(recs, 4, 0); got != 10*time.Millisecond {
		t.Fatalf("parallel makespan %v", got)
	}
	// Politeness 30ms on host a: a/1 at 0, a/2 no earlier than 30ms.
	got := ModelMakespan(recs, 4, 30*time.Millisecond)
	if got != 40*time.Millisecond {
		t.Fatalf("polite makespan %v", got)
	}
	// Deterministic: same inputs, same answer, input order irrelevant.
	rev := []*PageRecord{recs[3], recs[1], recs[0], recs[2]}
	if ModelMakespan(rev, 4, 30*time.Millisecond) != got {
		t.Fatal("makespan depends on input order")
	}
}

// TestSchedule: the list scheduler puts jobs, in order, onto the
// workers, each to the least-loaded worker, the first of equals; with
// one worker the makespan is the summed cost, the baseline every
// parallel speedup is measured against.
func TestSchedule(t *testing.T) {
	s := time.Second
	eight := []time.Duration{s, s, s, s, s, s, s, s}
	for _, tc := range []struct {
		name    string
		costs   []time.Duration
		workers int
		want    time.Duration
	}{
		// w0 = 3s; w1 = 1+1+1 = 3s; the 2s job ties and lands on w0.
		{"tie_to_first", []time.Duration{3 * s, s, s, s, 2 * s}, 2, 5 * s},
		{"serial", eight, 1, 8 * s},
		{"three_workers", eight, 3, 3 * s},
		{"one_each", eight, 8, s},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := Schedule(tc.costs, nil, tc.workers, 0); got != tc.want {
				t.Errorf("Schedule(%v, %d) = %v, want %v", tc.costs, tc.workers, got, tc.want)
			}
		})
	}
}

// TestFrontierDifferential drives seeded operation sequences through the
// one-map frontier and the three-map reference (frontier_reference_test.go),
// CompleteBatch at k = 1 standing for the reference's CompleteNext,
// each on its own cabinet, and holds them to identical results at every
// step: the claims and records each call returns, Counts, Records,
// Failures and Drained, and the cabinet write set each transition commits
// — key, value, delete flag and order, compared as WAL bytes. The one
// exception is BeginRecrawl, whose write set both implementations order
// by map iteration: there the committed tables and the frame sizes must
// match. Each seed also runs without a store, minus the reopen step.
func TestFrontierDifferential(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, durable := range []bool{true, false} {
			t.Run(fmt.Sprintf("seed%d/durable=%v", seed, durable), func(t *testing.T) {
				runDifferential(t, seed, durable, 300)
			})
		}
	}
}

// diffPair is the one-map frontier and the reference, driven in step.
type diffPair struct {
	t          *testing.T
	f          *Frontier
	ref        *refFrontier
	fs, rs     *cabinet.Store // nil when volatile
	walF, walR int            // WAL bytes already compared
}

func newDiffStore() *cabinet.Store {
	return cabinet.NewStore(cabinet.Options{Clock: vclock.NewVirtual(), SnapshotEvery: -1})
}

// open (re)opens both frontiers on their stores.
func (p *diffPair) open(adopt bool) {
	p.t.Helper()
	f, err := New(Options{Store: p.fs, AdoptClaims: adopt, MaxAttempts: 2})
	ref, rerr := newReference(Options{Store: p.rs, AdoptClaims: adopt, MaxAttempts: 2})
	if err != nil || rerr != nil {
		p.t.Fatalf("open(adopt=%v): %v, reference %v", adopt, err, rerr)
	}
	p.f, p.ref = f, ref
}

// check compares the write sets committed since the last check and the
// two frontiers' observable state.
func (p *diffPair) check(step string, ordered bool) {
	p.t.Helper()
	if p.fs != nil {
		wf, _ := p.fs.Disk().ReadFile("wal")
		wr, _ := p.rs.Disk().ReadFile("wal")
		nf, nr := wf[p.walF:], wr[p.walR:]
		switch {
		case ordered && !bytes.Equal(nf, nr):
			p.t.Fatalf("%s: committed %x, reference %x", step, nf, nr)
		case len(nf) != len(nr):
			p.t.Fatalf("%s: committed %d WAL bytes, reference %d", step, len(nf), len(nr))
		}
		p.walF, p.walR = len(wf), len(wr)
		kf, kr := p.fs.Keys(""), p.rs.Keys("")
		if !reflect.DeepEqual(kf, kr) {
			p.t.Fatalf("%s: store keys %q, reference %q", step, kf, kr)
		}
		for _, k := range kf {
			vf, _ := p.fs.Get(k)
			vr, _ := p.rs.Get(k)
			if !bytes.Equal(vf, vr) {
				p.t.Fatalf("%s: %s = %x, reference %x", step, k, vf, vr)
			}
		}
	}
	if a, b := p.f.Counts(), p.ref.Counts(); a != b {
		p.t.Fatalf("%s: counts %+v, reference %+v", step, a, b)
	}
	if a, b := p.f.Records(), p.ref.Records(); !reflect.DeepEqual(a, b) {
		p.t.Fatalf("%s: records differ: %d vs reference %d", step, len(a), len(b))
	}
	if a, b := p.f.Failures(), p.ref.Failures(); !reflect.DeepEqual(a, b) {
		p.t.Fatalf("%s: failures %+v, reference %+v", step, a, b)
	}
	if a, b := p.f.Drained(), p.ref.Drained(); a != b {
		p.t.Fatalf("%s: drained %v, reference %v", step, a, b)
	}
}

func (p *diffPair) same(step string, got, want any) {
	p.t.Helper()
	if !reflect.DeepEqual(got, want) {
		p.t.Fatalf("%s: got %+v, reference %+v", step, got, want)
	}
}

func runDifferential(t *testing.T, seed int64, durable bool, steps int) {
	rng := rand.New(rand.NewSource(seed))
	p := &diffPair{t: t}
	if durable {
		p.fs, p.rs = newDiffStore(), newDiffStore()
	}
	p.open(false)
	urlOf := func(i int) string { return fmt.Sprintf("http://h/u%02d", i) }
	randURL := func() string { return urlOf(rng.Intn(30)) }
	workers := []string{"w0", "w1", "w2"}
	links := func(n int) []Link {
		out := make([]Link, n)
		for i := range out {
			out[i] = Link{URL: randURL(), Referrer: randURL(), Depth: rng.Intn(6)}
		}
		return out
	}
	// record returns two equal, unshared records for url: complete
	// stores its argument and may lower its depth later.
	record := func(url string) (*PageRecord, *PageRecord) {
		r := &PageRecord{URL: url, Referrer: randURL(), Depth: rng.Intn(6), Status: 200,
			Bytes: rng.Intn(5000), Type: "text/html", AgeDays: rng.Intn(900),
			FetchCost: time.Duration(rng.Intn(1e6)), Digest: fmt.Sprint(rng.Intn(9)),
			Links: links(rng.Intn(4))}
		c := *r
		c.Links = slices.Clone(r.Links)
		return r, &c
	}
	admit := upTo(4)
	held := map[string]*Claim{} // worker → the claim it last took
	var completed []string
	p.check("open", true)
	for i := 0; i < steps; i++ {
		w := workers[rng.Intn(len(workers))]
		var step string
		ordered := true
		switch op := rng.Intn(20); {
		case op < 3:
			ls := links(1 + rng.Intn(4))
			step = fmt.Sprintf("%d Add %v", i, ls)
			fresh, low, err := p.f.Add(ls)
			rfresh, rlow, rerr := p.ref.Add(ls)
			p.same(step, []any{fresh, low, err}, []any{rfresh, rlow, rerr})
		case op < 5:
			ls := links(1 + rng.Intn(4))
			step = fmt.Sprintf("%d Offer %v", i, ls)
			p.same(step, p.f.Offer(ls, admit), p.ref.Offer(ls, admit))
		case op < 8:
			step = fmt.Sprintf("%d Claim %s", i, w)
			cl, ok := p.f.Claim(w)
			rcl, rok := p.ref.Claim(w)
			p.same(step, []any{cl, ok}, []any{rcl, rok})
			if ok {
				held[w] = cl
			}
		case op < 12:
			url := randURL() // pending, done, failed or unknown
			if cl, ok := held[w]; ok && rng.Intn(5) != 0 {
				url = cl.URL
			}
			// CompleteBatch at k = 1 is the reference's CompleteNext.
			step = fmt.Sprintf("%d CompleteBatch k=1 %s %s", i, url, w)
			a, b := record(url)
			claims, err := p.f.CompleteBatch(w, []*PageRecord{a}, nil, 1, admit)
			rnext, rerr := p.ref.CompleteNext(url, w, b, admit)
			var next *Claim
			if len(claims) > 0 {
				next = claims[0]
			}
			p.same(step, []any{len(claims) <= 1, next, err}, []any{true, rnext, rerr})
			delete(held, w)
			if next != nil {
				held[w] = next
			}
			completed = append(completed, url)
		case op < 13:
			if len(completed) == 0 {
				continue
			}
			url := completed[rng.Intn(len(completed))]
			step = fmt.Sprintf("%d Complete (duplicate) %s %s", i, url, w)
			a, b := record(url)
			first, err := p.f.Complete(url, w, a)
			rfirst, rerr := p.ref.Complete(url, w, b)
			p.same(step, []any{first, err}, []any{rfirst, rerr})
		case op < 16:
			url, attempt := randURL(), 0
			if cl, ok := held[w]; ok && rng.Intn(4) != 0 {
				url, attempt = cl.URL, cl.Attempts
			}
			// Now and then the report is stale: the claim has moved on
			// to a later attempt since.
			if rng.Intn(4) == 0 {
				attempt--
			}
			retry := rng.Intn(3) > 0
			step = fmt.Sprintf("%d Fail %s %s attempt=%d retryable=%v", i, url, w, attempt, retry)
			re, err := p.f.Fail(url, w, attempt, "wb_fetch_failed", "boom", retry)
			rre, rerr := p.ref.Fail(url, w, attempt, "wb_fetch_failed", "boom", retry)
			p.same(step, []any{re, err}, []any{rre, rerr})
			delete(held, w)
		case op < 17:
			fl := Failure{URL: randURL(), Referrer: randURL(), Depth: rng.Intn(6), Code: "wb_depth_unstable", Reason: "deep"}
			step = fmt.Sprintf("%d Journal %s", i, fl.URL)
			p.same(step, p.f.Journal(fl), p.ref.Journal(fl))
		case op < 18:
			if rng.Intn(3) > 0 {
				continue // keep recrawls rarer than the other steps
			}
			step = fmt.Sprintf("%d BeginRecrawl", i)
			p.same(step, p.f.BeginRecrawl(), p.ref.BeginRecrawl())
			ordered = false
		default:
			if !durable {
				continue
			}
			adopt := rng.Intn(2) == 0
			step = fmt.Sprintf("%d reopen adopt=%v", i, adopt)
			p.open(adopt)
			if adopt {
				held = map[string]*Claim{}
			}
		}
		p.check(step, ordered)
	}
}

// leaseURLs lists the URLs of a lease, in order.
func leaseURLs(cls []*Claim) []string {
	var out []string
	for _, cl := range cls {
		out = append(out, cl.URL)
	}
	return out
}

// site returns n links at depth 1, http://h/p00 onwards.
func site(n int) []Link {
	out := make([]Link, n)
	for i := range out {
		out[i] = Link{URL: fmt.Sprintf("http://h/p%02d", i), Referrer: "http://h/", Depth: 1}
	}
	return out
}

// TestCompleteBatchIsOneTransaction: a turn over a lease of k URLs —
// completing them, admitting their links, failing one, and leasing the
// next k — is one WAL transaction, and a lease is taken shallowest
// first.
func TestCompleteBatchIsOneTransaction(t *testing.T) {
	store := newDiffStore()
	f, err := New(Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	f.Add(site(3))
	before := store.Seq()
	cls, err := f.CompleteBatch("w", nil, nil, 4, upTo(2))
	if err != nil || !reflect.DeepEqual(leaseURLs(cls), []string{"http://h/p00", "http://h/p01", "http://h/p02"}) {
		t.Fatalf("first lease = (%v, %v), want the three pending URLs", leaseURLs(cls), err)
	}
	if got := store.Seq() - before; got != 1 {
		t.Fatalf("leasing three claims committed %d transactions, want 1", got)
	}
	recs := []*PageRecord{
		{URL: "http://h/p00", Status: 200, Links: []Link{{URL: "http://h/q0"}, {URL: "http://h/q1"}, {URL: "http://h/q2"}}},
		{URL: "http://h/p01", Status: 200, Links: []Link{{URL: "http://h/q3"}, {URL: "http://h/q4"}}},
	}
	fails := []FetchFailure{{URL: "http://h/p02", Code: "wb_fetch_failed", Reason: "boom", Retryable: true}}
	before = store.Seq()
	cls, err = f.CompleteBatch("w", recs, fails, 4, upTo(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := store.Seq() - before; got != 1 {
		t.Fatalf("a turn over the lease committed %d transactions, want 1", got)
	}
	// p02 re-pended at depth 1 sorts before the depth-2 links.
	if want := []string{"http://h/p02", "http://h/q0", "http://h/q1", "http://h/q2"}; !reflect.DeepEqual(leaseURLs(cls), want) {
		t.Fatalf("next lease %v, want %v", leaseURLs(cls), want)
	}
	if c := f.Counts(); c.Done != 2 || c.Claimed != 4 || c.Pending != 2 || c.Journal != 1 {
		t.Fatalf("counts %+v", c)
	}
}

// TestCompleteBatchDuplicateReissuesLease: a batch repeated after a lost
// reply completes nothing twice, commits nothing, and re-issues the
// very lease the first one took.
func TestCompleteBatchDuplicateReissuesLease(t *testing.T) {
	store := newDiffStore()
	f, err := New(Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	f.Add(site(8))
	first, _ := f.CompleteBatch("w", nil, nil, 3, upTo(1))
	recs := make([]*PageRecord, len(first))
	for i, cl := range first {
		recs[i] = &PageRecord{URL: cl.URL, Status: 200}
	}
	next, err := f.CompleteBatch("w", recs, nil, 3, upTo(1))
	if err != nil {
		t.Fatal(err)
	}
	before := store.Seq()
	again, err := f.CompleteBatch("w", recs, nil, 3, upTo(1))
	if err != nil {
		t.Fatal(err)
	}
	if store.Seq() != before || !reflect.DeepEqual(again, next) {
		t.Fatalf("repeat committed %d and leased %v, want 0 and %v", store.Seq()-before, leaseURLs(again), leaseURLs(next))
	}
	if c := f.Counts(); c.DupCompletions != 3 || c.Reclaims != 3 || c.Done != 3 || c.Claimed != 3 || c.Pending != 2 {
		t.Fatalf("counts %+v", c)
	}
}

// TestCompleteBatchFailsAsFail: a failure inside a batch re-pends the
// URL below the attempt cap and journals it terminally at the cap, with
// the same journal, counts and write sets as Fail on a twin frontier.
func TestCompleteBatchFailsAsFail(t *testing.T) {
	bs, fs := newDiffStore(), newDiffStore()
	b, _ := New(Options{Store: bs, MaxAttempts: 2})
	f, _ := New(Options{Store: fs, MaxAttempts: 2})
	for _, fr := range []*Frontier{b, f} {
		fr.Add([]Link{{URL: "http://h/flaky", Depth: 0}})
		fr.Claim("w")
	}
	fail := FetchFailure{URL: "http://h/flaky", Code: "wb_fetch_failed", Reason: "reset|by peer", Retryable: true}
	for attempt := 1; attempt <= 2; attempt++ {
		fail.Attempt = attempt - 1
		cls, err := b.CompleteBatch("w", nil, []FetchFailure{fail}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		requeued, err := f.Fail(fail.URL, "w", fail.Attempt, fail.Code, fail.Reason, fail.Retryable)
		if err != nil {
			t.Fatal(err)
		}
		cl, _ := f.Claim("w")
		switch {
		case attempt == 1 && (!requeued || len(cls) != 1 || cls[0].Attempts != 1 || !reflect.DeepEqual(cls[0], cl)):
			t.Fatalf("attempt 1: batch leased %+v, Fail requeued %v and Claim leased %+v; want the URL back at attempt 1", cls, requeued, cl)
		case attempt == 2 && (requeued || len(cls) != 0 || cl != nil):
			t.Fatalf("attempt 2: batch leased %+v, Fail requeued %v; want the URL terminal", cls, requeued)
		}
	}
	if a, c := b.Counts(), f.Counts(); a != c || a.TerminalFailed != 1 || a.Journal != 2 {
		t.Fatalf("batch counts %+v, Fail counts %+v; want one terminal failure and two journal entries", a, c)
	}
	if a, c := b.Failures(), f.Failures(); !reflect.DeepEqual(a, c) {
		t.Fatalf("batch failures %+v, Fail failures %+v", a, c)
	}
	for _, k := range bs.Keys("") {
		vb, _ := bs.Get(k)
		vf, _ := fs.Get(k)
		if !bytes.Equal(vb, vf) {
			t.Fatalf("%s = %x after the batch, %x after Fail", k, vb, vf)
		}
	}
	if kb, kf := bs.Keys(""), fs.Keys(""); !reflect.DeepEqual(kb, kf) {
		t.Fatalf("batch store keys %q, Fail store keys %q", kb, kf)
	}
}

// TestCompleteBatchRepeatedFailureCountsOnce: a batch reports a
// failure, and its reply, which leases the re-pended URL back to the
// same worker, is lost. The replayed batch names the attempt the
// frontier has moved past, so it fails nothing again: one journal
// entry, the URL at attempt 1, and the replay re-issues the lost lease.
func TestCompleteBatchRepeatedFailureCountsOnce(t *testing.T) {
	store := newDiffStore()
	f, err := New(Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	f.Add([]Link{{URL: "http://h/flaky", Depth: 0}})
	cl, _ := f.Claim("w")
	report := []FetchFailure{{URL: cl.URL, Attempt: cl.Attempts, Code: "wb_fetch_failed", Reason: "boom", Retryable: true}}
	lost, err := f.CompleteBatch("w", nil, report, 1, nil)
	if err != nil || len(lost) != 1 || lost[0].URL != cl.URL || lost[0].Attempts != 1 {
		t.Fatalf("the failing batch leased (%v, %v), want %s back at attempt 1", leaseURLs(lost), err, cl.URL)
	}
	before := store.Seq()
	again, err := f.CompleteBatch("w", nil, report, 1, nil)
	if err != nil || len(again) != 1 || *again[0] != *lost[0] {
		for _, cl := range again {
			t.Logf("replay leased %s at attempt %d", cl.URL, cl.Attempts)
		}
		t.Fatalf("the replay leased %d claims (%v), want the lost lease of %s at attempt 1", len(again), err, cl.URL)
	}
	if store.Seq() != before {
		t.Fatalf("the replay committed %d transactions, want 0", store.Seq()-before)
	}
	if c := f.Counts(); c.Journal != 1 || c.Claimed != 1 || c.TerminalFailed != 0 || c.Reclaims != 1 {
		t.Fatalf("counts %+v, want one journal entry and the URL still claimed", c)
	}
}

// TestCompleteBatchShortLeaseWaits: a lease short of k is taken only
// when no other worker holds a claim, since until then the other
// leases' reports may still fill it.
func TestCompleteBatchShortLeaseWaits(t *testing.T) {
	f := volatileFrontier(t)
	f.Add(site(6))
	w1, _ := f.CompleteBatch("w1", nil, nil, 4, nil)
	if cls, _ := f.CompleteBatch("w2", nil, nil, 4, nil); len(cls) != 0 {
		t.Fatalf("w2 leased %v while w1 holds claims, want nothing", leaseURLs(cls))
	}
	recs := make([]*PageRecord, len(w1))
	for i, cl := range w1 {
		recs[i] = &PageRecord{URL: cl.URL, Status: 200}
	}
	// w1's report leaves two pending and nobody else holding: it takes
	// them, short as that lease is.
	if cls, _ := f.CompleteBatch("w1", recs, nil, 4, nil); !reflect.DeepEqual(leaseURLs(cls), []string{"http://h/p04", "http://h/p05"}) {
		t.Fatalf("w1 leased %v, want the last two", leaseURLs(cls))
	}
}

// TestCompleteBatchRecoversLease: a frontier reopened from its store
// re-issues every claim of a worker's lease, from the c/ entries alone,
// and commits nothing to do it.
func TestCompleteBatchRecoversLease(t *testing.T) {
	store := newDiffStore()
	f, _ := New(Options{Store: store})
	f.Add(site(8))
	held, _ := f.CompleteBatch("w1", nil, nil, 4, nil)
	f.CompleteBatch("w2", nil, nil, 4, nil)
	g, err := New(Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	before := store.Seq()
	got, err := g.CompleteBatch("w1", nil, nil, 4, nil)
	if err != nil || store.Seq() != before {
		t.Fatalf("re-issue after reopen: %v, committed %d", err, store.Seq()-before)
	}
	if !reflect.DeepEqual(leaseURLs(got), leaseURLs(held)) {
		t.Fatalf("reopened frontier re-issued %v, want %v", leaseURLs(got), leaseURLs(held))
	}
	if c := g.Counts(); c.Reclaims != 4 || c.Claimed != 8 || c.Pending != 0 {
		t.Fatalf("counts %+v", c)
	}
}

// TestNoURLHeldByTwoWorkers drives workers through seeded turns at
// leases of one to four URLs — reports, repeated reports, failures and
// reopens — and holds every URL to at most one worker's lease. It also
// pins the two cases that broke that before leases were tracked per
// claim: another worker's failure re-pended a claim, and a third
// worker's claim of it left it re-issued to its old holder too; and a
// failure repeated after a lost reply failed the URL again once another
// worker held it.
func TestNoURLHeldByTwoWorkers(t *testing.T) {
	f := volatileFrontier(t)
	f.Add([]Link{{URL: "http://h/a", Depth: 0}})
	a, _ := f.Claim("w0")
	if requeued, _ := f.Fail(a.URL, "w2", a.Attempts, "wb_fetch_failed", "boom", true); requeued || f.Counts().Journal != 0 {
		t.Fatalf("w2's failure of w0's claim requeued=%v with %d journal entries, want it left alone", requeued, f.Counts().Journal)
	}
	if b, ok := f.Claim("w1"); ok {
		t.Fatalf("w1 claimed %s, which w0 holds", b.URL)
	}
	if cl, _ := f.Claim("w0"); cl == nil || cl.URL != a.URL {
		t.Fatalf("w0 was re-issued %+v, want its claim on %s", cl, a.URL)
	}
	// And a failure repeated after a lost reply: w0's report re-pends a
	// and leases it the shallower 0, w1 leases a, and w0's repeated
	// report leaves w1's claim alone.
	f.Add([]Link{{URL: "http://h/0", Depth: 0}})
	report := []FetchFailure{{URL: a.URL, Code: "wb_fetch_failed", Reason: "boom", Retryable: true}}
	f.CompleteBatch("w0", nil, report, 1, nil)
	if cls, _ := f.CompleteBatch("w1", nil, nil, 1, nil); len(cls) != 1 || cls[0].URL != a.URL {
		t.Fatalf("w1 leased %v, want the re-pended %s", leaseURLs(cls), a.URL)
	}
	f.CompleteBatch("w0", nil, report, 1, nil)
	if cls, _ := f.CompleteBatch("w1", nil, nil, 1, nil); len(cls) != 1 || cls[0].URL != a.URL || f.Counts().Journal != 1 {
		t.Fatalf("after w0's repeated failure w1 holds %v with %d journal entries, want %s and 1", leaseURLs(cls), f.Counts().Journal, a.URL)
	}

	for seed := int64(1); seed <= 30; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			store := newDiffStore()
			f, err := New(Options{Store: store, MaxAttempts: 2})
			if err != nil {
				t.Fatal(err)
			}
			f.Add([]Link{{URL: "http://h/u00", Depth: 0}})
			workers := []string{"w0", "w1", "w2"}
			type turn struct {
				recs  []*PageRecord
				fails []FetchFailure
			}
			lease := map[string][]*Claim{} // worker → its last lease
			report := map[string]*turn{}   // worker → its last report, for repeats
			children := func(url string) []Link {
				out := make([]Link, rng.Intn(4))
				for i := range out {
					out[i] = Link{URL: fmt.Sprintf("http://h/u%02d", rng.Intn(60)), Referrer: url}
				}
				return out
			}
			for step := 0; step < 200; step++ {
				w := workers[rng.Intn(len(workers))]
				k := 1 + rng.Intn(4)
				var recs []*PageRecord
				var fails []FetchFailure
				switch op := rng.Intn(10); {
				case op < 2 && report[w] != nil: // the last reply was lost
					recs, fails = report[w].recs, report[w].fails
				case op < 3:
					g, err := New(Options{Store: store, MaxAttempts: 2})
					if err != nil {
						t.Fatal(err)
					}
					f = g
					continue
				default:
					for _, cl := range lease[w] {
						if rng.Intn(6) == 0 {
							fails = append(fails, FetchFailure{URL: cl.URL, Attempt: cl.Attempts, Code: "wb_fetch_failed", Reason: "boom", Retryable: rng.Intn(2) == 0})
							continue
						}
						recs = append(recs, &PageRecord{URL: cl.URL, Status: 200, Links: children(cl.URL)})
					}
				}
				cls, err := f.CompleteBatch(w, recs, fails, k, upTo(5))
				if err != nil {
					t.Fatal(err)
				}
				lease[w], report[w] = cls, &turn{recs, fails}
				holder := map[string]string{}
				held := 0
				for _, v := range workers {
					for _, cl := range lease[v] {
						if other, ok := holder[cl.URL]; ok {
							t.Fatalf("step %d: %s held by %s and %s", step, cl.URL, other, v)
						}
						holder[cl.URL] = v
						held++
					}
				}
				if c := f.Counts(); c.Claimed != held {
					t.Fatalf("step %d: %d claimed, the workers' leases hold %d", step, c.Claimed, held)
				}
			}
		})
	}
}

// TestHeldClaimsStayTheirOwn: claims come a block at a time from chunks
// that are never reused. Across a 1,000-URL drain through Claim,
// ClaimWait, CompleteNext and CompleteBatch at k = 8, with fetches
// failing and retried, every claim held to the end still reads the URL,
// depth and attempts it was issued with, and no two claims returned
// share an address.
func TestHeldClaimsStayTheirOwn(t *testing.T) {
	const urls = 1000
	url := func(i int) string { return fmt.Sprintf("http://h/u%04d", i) }
	// children are a claim's links: u0000 links to u0001–u0010, u0001
	// to u0011–u0020, and so on below u1000, at the claim's depth + 1.
	children := func(cl *Claim) []Link {
		var i int
		fmt.Sscanf(cl.URL, "http://h/u%04d", &i)
		var out []Link
		for c := 10*i + 1; c <= 10*i+10 && c < urls; c++ {
			out = append(out, Link{URL: url(c), Referrer: cl.URL, Depth: cl.Depth + 1})
		}
		return out
	}
	f := volatileFrontier(t)
	f.Add([]Link{{URL: url(0), Depth: 0}})
	rng := rand.New(rand.NewSource(1))
	type issued struct {
		cl   *Claim
		want Claim
	}
	var held []issued
	seen := map[*Claim]bool{}
	keep := func(cls ...*Claim) {
		for _, cl := range cls {
			if seen[cl] {
				t.Fatalf("claim on %s returned at the address of an earlier claim", cl.URL)
			}
			seen[cl] = true
			held = append(held, issued{cl, *cl})
		}
	}
	fails := func(cl *Claim) bool { return cl.Attempts == 0 && rng.Intn(8) == 0 }
	record := func(cl *Claim) *PageRecord {
		return &PageRecord{URL: cl.URL, Status: 200, Links: children(cl)}
	}
	// resolve completes (or fails) a claim held through Claim or
	// ClaimWait, admitting its links.
	resolve := func(w string, cl *Claim) {
		if fails(cl) {
			if _, err := f.Fail(cl.URL, w, cl.Attempts, "wb_fetch_failed", "boom", true); err != nil {
				t.Fatal(err)
			}
			return
		}
		if _, err := f.Complete(cl.URL, w, record(cl)); err != nil {
			t.Fatal(err)
		}
		if err := f.Offer(children(cl), upTo(10)); err != nil {
			t.Fatal(err)
		}
	}
	var w0, w1, w2 *Claim
	var w3 []*Claim
	for !f.Drained() || w0 != nil || w1 != nil || w2 != nil || len(w3) > 0 {
		if w0 != nil {
			resolve("w0", w0)
		}
		if w0, _ = f.Claim("w0"); w0 != nil {
			keep(w0)
		}
		if w1 != nil {
			resolve("w1", w1)
			w1 = nil
		}
		if f.Counts().Pending > 0 {
			w1, _ = f.ClaimWait("w1")
			keep(w1)
		}
		var err error
		if w2 == nil || fails(w2) {
			if w2 != nil {
				if _, err := f.Fail(w2.URL, "w2", w2.Attempts, "wb_fetch_failed", "boom", true); err != nil {
					t.Fatal(err)
				}
			}
			w2, _ = f.Claim("w2")
		} else if w2, err = f.CompleteNext("w2", record(w2), upTo(10)); err != nil {
			t.Fatal(err)
		}
		if w2 != nil {
			keep(w2)
		}
		var recs []*PageRecord
		var fl []FetchFailure
		for _, cl := range w3 {
			if fails(cl) {
				fl = append(fl, FetchFailure{URL: cl.URL, Attempt: cl.Attempts, Code: "wb_fetch_failed", Reason: "boom", Retryable: true})
			} else {
				recs = append(recs, record(cl))
			}
		}
		if w3, err = f.CompleteBatch("w3", recs, fl, 8, upTo(10)); err != nil {
			t.Fatal(err)
		}
		keep(w3...)
	}
	if c := f.Counts(); c.Done != urls || c.Journal == 0 {
		t.Fatalf("drain left %+v, want %d done and some retried failures", c, urls)
	}
	for _, h := range held {
		if *h.cl != h.want {
			t.Fatalf("a held claim changed from %+v to %+v", h.want, *h.cl)
		}
	}
	t.Logf("%d claims held to the end", len(held))
}
