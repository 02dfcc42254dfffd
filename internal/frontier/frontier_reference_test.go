package frontier

import (
	"container/heap"
	"sort"
	"sync"

	"tax/internal/cabinet"
)

// The reference frontier: the three-map implementation the staged
// crawler shipped with, a URL living in one of pending, claims or done
// and moving between them on every transition. It stays here, untouched
// but for its names, two worker checks (in lease and Fail) and one
// attempt check (in Fail), as the oracle TestFrontierDifferential holds
// the one-map frontier to: the same claims, counts, records and
// failures, and the same cabinet write set at every transition.

// refFrontier is the reference Frontier.
type refFrontier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	store  *cabinet.Store
	ns     string
	maxTry int
	closed bool

	pending  map[string]*entry // url → pending entry (also in heap)
	claims   map[string]*entry // url → claimed entry (worker set)
	byWorker map[string]string // worker → claimed url, for re-issue
	done     map[string]*PageRecord
	prior    map[string]*PageRecord // previous cycle's records (recrawl)
	failed   map[string]*Failure    // terminal failures only
	journal  int                    // total journal entries written
	heap     entryHeap

	// tx is the write set of the transition under construction, reused
	// across transitions. It stays empty without a store.
	tx []cabinet.Op

	dups     int
	reclaims int
}

// newReference opens a reference frontier, recovering any durable state
// in the store's namespace.
func newReference(opts Options) (*refFrontier, error) {
	f := &refFrontier{
		store:    opts.Store,
		ns:       opts.Namespace,
		maxTry:   opts.MaxAttempts,
		pending:  make(map[string]*entry),
		claims:   make(map[string]*entry),
		byWorker: make(map[string]string),
		done:     make(map[string]*PageRecord),
		prior:    make(map[string]*PageRecord),
		failed:   make(map[string]*Failure),
	}
	f.cond = sync.NewCond(&f.mu)
	if f.ns == "" {
		f.ns = "fr/"
	}
	if f.maxTry <= 0 {
		f.maxTry = 3
	}
	if f.store == nil {
		return f, nil
	}
	var adopt []*entry
	for _, key := range f.store.Keys(f.ns) {
		val, ok := f.store.Get(key)
		if !ok {
			continue
		}
		switch kind, _ := splitKey(f.ns, key); kind {
		case "p":
			e, err := decodeEntry(val)
			if err != nil {
				return nil, err
			}
			f.pending[e.url] = e
			heap.Push(&f.heap, e)
		case "c":
			e, err := decodeEntry(val)
			if err != nil {
				return nil, err
			}
			if opts.AdoptClaims {
				adopt = append(adopt, e)
			} else {
				f.claims[e.url] = e
				if e.worker != "" {
					f.byWorker[e.worker] = e.url
				}
			}
		case "d":
			r, err := DecodeRecord(val)
			if err != nil {
				return nil, err
			}
			f.done[r.URL] = r
		case "r":
			r, err := DecodeRecord(val)
			if err != nil {
				return nil, err
			}
			f.prior[r.URL] = r
		case "f":
			fl, err := decodeFailure(val)
			if err != nil {
				return nil, err
			}
			f.journal++
			if fl.Final {
				f.failed[fl.URL] = fl
			}
		}
	}
	// Orphaned claims from a crashed crawl whose workers died with it:
	// fold them back into pending so the resumed crawl refetches them.
	// The durable move keeps a second recovery consistent.
	for _, e := range adopt {
		e.worker = ""
		f.del("c/", e.url)
		f.putEntry("p/", e)
		if err := f.commitTx(); err != nil {
			return nil, err
		}
		f.pending[e.url] = e
		heap.Push(&f.heap, e)
	}
	return f, nil
}

// putEntry, putRecord, putFailure and del add one write to the
// transition's write set. A frontier without a store journals nothing,
// so they encode nothing.
func (f *refFrontier) putEntry(kind string, e *entry) {
	if f.store != nil {
		f.tx = append(f.tx, cabinet.Op{Key: f.ns + kind + e.url, Value: e.encode()})
	}
}

func (f *refFrontier) putRecord(kind string, r *PageRecord) {
	if f.store != nil {
		f.tx = append(f.tx, cabinet.Op{Key: f.ns + kind + r.URL, Value: r.Encode()})
	}
}

func (f *refFrontier) putFailure(fl *Failure) {
	if f.store != nil {
		f.tx = append(f.tx, cabinet.Op{Key: f.ns + "f/" + fl.URL + "#" + itoa(fl.Attempts), Value: fl.encode()})
	}
}

func (f *refFrontier) del(kind, url string) {
	if f.store != nil {
		f.tx = append(f.tx, cabinet.Op{Del: true, Key: f.ns + kind + url})
	}
}

// commitTx commits the write set as one transaction. Memory already
// holds its effects, so a failed commit closes the frontier.
func (f *refFrontier) commitTx() error {
	if len(f.tx) == 0 {
		return nil
	}
	err := f.store.Commit(f.tx)
	clear(f.tx)
	f.tx = f.tx[:0]
	if err != nil {
		f.closed = true
		f.cond.Broadcast()
	}
	return err
}

// Add offers discovered links to the frontier. Links already done,
// claimed, pending, or terminally failed are not re-enqueued; fresh is
// the number of genuinely new URLs. A link that re-discovers a *done*
// URL at a strictly shallower depth lowers the record's depth and
// returns it in lowered — the caller must re-offer that record's
// out-links at the new depth, mirroring the recursive crawl's
// best-depth relaxation. Offer does that re-offering itself.
func (f *refFrontier) Add(links []Link) (fresh int, lowered []*PageRecord, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, nil, errClosed
	}
	for _, l := range links {
		isFresh, low := f.relax(l.URL, l.Referrer, l.Depth)
		if isFresh {
			fresh++
		}
		if low != nil {
			lowered = append(lowered, low)
		}
	}
	if err := f.commitTx(); err != nil {
		return fresh, lowered, err
	}
	f.cond.Broadcast()
	return fresh, lowered, nil
}

// Offer adds the links admit accepts, in one transaction, and re-expands
// every done record they lower, as CompleteNext does. admit is called
// with the frontier locked and must not call back into it.
func (f *refFrontier) Offer(links []Link, admit func(url string, depth int) bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errClosed
	}
	for _, l := range links {
		if !admit(l.URL, l.Depth) {
			continue
		}
		if _, low := f.relax(l.URL, l.Referrer, l.Depth); low != nil {
			f.expand(low, admit)
		}
	}
	if err := f.commitTx(); err != nil {
		return err
	}
	f.cond.Broadcast()
	return nil
}

// relax is the one way a URL enters the frontier or moves shallower:
// a new URL pends at depth; a pending, claimed or done one keeps the
// shallower of its depth and this one. lowered is the done record a
// link made shallower, whose own links are now one step shallower too.
func (f *refFrontier) relax(url, referrer string, depth int) (fresh bool, lowered *PageRecord) {
	if e, ok := f.pending[url]; ok {
		if depth < e.depth {
			e.depth = depth
			e.referrer = referrer
			heap.Fix(&f.heap, e.index)
			f.putEntry("p/", e)
		}
		return false, nil
	}
	if e, ok := f.claims[url]; ok {
		if depth < e.depth {
			e.depth = depth
			f.putEntry("c/", e)
		}
		return false, nil
	}
	if rec, ok := f.done[url]; ok {
		if depth < rec.Depth {
			rec.Depth = depth
			f.putRecord("d/", rec)
			return false, rec
		}
		return false, nil
	}
	if _, ok := f.failed[url]; ok {
		return false, nil
	}
	e := &entry{url: url, referrer: referrer, depth: depth}
	f.pending[url] = e
	heap.Push(&f.heap, e)
	f.putEntry("p/", e)
	return true, nil
}

// expand offers rec's out-links at rec.Depth+1 through admit, then
// those of every done record the offer lowers, until nothing lowers:
// the recursive crawl's best-depth relaxation, and the only loop that
// re-expands a record.
func (f *refFrontier) expand(rec *PageRecord, admit func(url string, depth int) bool) {
	var queue []*PageRecord
	for {
		depth := rec.Depth + 1
		for _, l := range rec.Links {
			if !admit(l.URL, depth) {
				continue
			}
			if _, low := f.relax(l.URL, l.Referrer, depth); low != nil {
				queue = append(queue, low)
			}
		}
		if len(queue) == 0 {
			return
		}
		rec, queue = queue[0], queue[1:]
	}
}

// Claim leases the shallowest pending URL to worker. If the worker
// already holds an unresolved claim — its previous claim reply was
// lost, or it is retrying after a frontier restart — that same claim
// is re-issued rather than a new one, which is what keeps a lossy
// network from double-fetching a URL.
func (f *refFrontier) Claim(worker string) (*Claim, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cl := f.claimLocked(worker)
	return cl, cl != nil
}

// claimLocked leases and commits; nil when there is nothing to lease or
// the commit failed, which closed the frontier.
func (f *refFrontier) claimLocked(worker string) *Claim {
	cl := f.lease(worker)
	if f.commitTx() != nil {
		return nil
	}
	return cl
}

// lease re-issues worker's unresolved claim, or moves the shallowest
// pending URL to worker; nil when there is neither.
func (f *refFrontier) lease(worker string) *Claim {
	if url, ok := f.byWorker[worker]; ok {
		// The worker check is the one change to the shipped code: without
		// it, a claim failed by another worker, re-pended and re-claimed
		// by a third was re-issued to its old holder too — one URL held
		// by two workers (TestNoURLHeldByTwoWorkers).
		if e, live := f.claims[url]; live && e.worker == worker {
			f.reclaims++
			return f.claimView(e)
		}
		delete(f.byWorker, worker)
	}
	if f.heap.Len() == 0 {
		return nil
	}
	e := heap.Pop(&f.heap).(*entry)
	delete(f.pending, e.url)
	e.worker = worker
	f.del("p/", e.url)
	f.putEntry("c/", e)
	f.claims[e.url] = e
	f.byWorker[worker] = e.url
	return f.claimView(e)
}

func (f *refFrontier) claimView(e *entry) *Claim {
	return &Claim{URL: e.url, Referrer: e.referrer, Depth: e.depth, Attempts: e.attempts, Prior: f.prior[e.url]}
}

// ClaimWait blocks until a claim is available, the frontier drains
// (nothing pending, nothing claimed), or it is closed.
func (f *refFrontier) ClaimWait(worker string) (*Claim, WaitState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.closed {
			return nil, WaitClosed
		}
		if cl := f.claimLocked(worker); cl != nil {
			return cl, WaitClaimed
		}
		if len(f.pending) == 0 && len(f.claims) == 0 {
			return nil, WaitDrained
		}
		f.cond.Wait()
	}
}

// Complete marks url done with its fetch record. Idempotent: a retried
// completion (lost ack) is absorbed and counted. Returns whether this
// call was the first completion. It admits none of the record's links
// and leases nothing; CompleteNext does both.
func (f *refFrontier) Complete(url, worker string, rec *PageRecord) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, first, err := f.complete(url, worker, rec, nil, false)
	return first, err
}

// CompleteNext is one worker's whole turn, in one transaction: it
// completes url as Complete does, offers the record's links at its
// depth + 1 through admit (nil admits none) and re-expands every done
// record they lower, then leases the worker's next URL as Claim does.
// next is nil when nothing is pending. admit is called with the frontier
// locked and must not call back into it.
//
// The record's depth is the frontier's, not the worker's: a claim
// re-discovered shallower while in flight completes, and expands, at
// the shallower depth.
func (f *refFrontier) CompleteNext(url, worker string, rec *PageRecord, admit func(url string, depth int) bool) (next *Claim, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	next, _, err = f.complete(url, worker, rec, admit, true)
	return next, err
}

// complete is the body of Complete and CompleteNext. A repeated
// completion changes nothing but the duplicate count: the first one
// admitted the links in the same transaction.
func (f *refFrontier) complete(url, worker string, rec *PageRecord, admit func(url string, depth int) bool, next bool) (*Claim, bool, error) {
	if f.closed {
		return nil, false, errClosed
	}
	if cur, ok := f.byWorker[worker]; ok && cur == url {
		delete(f.byWorker, worker)
	}
	_, dup := f.done[url]
	if dup {
		f.dups++
	} else {
		if e, ok := f.claims[url]; ok {
			rec.Depth = e.depth
			delete(f.claims, url)
			f.del("c/", url)
			if e.worker != "" && e.worker != worker {
				delete(f.byWorker, e.worker)
			}
		} else if e, ok := f.pending[url]; ok {
			rec.Depth = e.depth
			heap.Remove(&f.heap, e.index)
			delete(f.pending, url)
			f.del("p/", url)
		}
		f.done[url] = rec
		f.putRecord("d/", rec)
		if admit != nil {
			f.expand(rec, admit)
		}
	}
	var cl *Claim
	if next {
		cl = f.lease(worker)
	}
	if err := f.commitTx(); err != nil {
		return nil, false, err
	}
	f.cond.Broadcast()
	return cl, !dup, nil
}

// Fail reports a fetch failure for a claimed URL. Retryable failures
// below the attempt cap re-pend the URL (and journal the attempt);
// anything else is journaled terminally. Returns whether the URL was
// re-queued.
func (f *refFrontier) Fail(url, worker string, attempt int, code, reason string, retryable bool) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return false, errClosed
	}
	e, ok := f.claims[url]
	// The worker check is the second change to the shipped code: a
	// failure speaks only for the reporting worker's own claim. The
	// attempt check is the third, and it moved the byWorker release
	// below the check: a failure speaks only for the attempt it names,
	// so a repeat leaves the re-issued claim with its worker.
	if !ok || e.worker != worker || e.attempts != attempt {
		// Already resolved (dup fail after a lost ack): nothing to do.
		f.cond.Broadcast()
		return false, nil
	}
	if cur, ok := f.byWorker[worker]; ok && cur == url {
		delete(f.byWorker, worker)
	}
	e.attempts++
	fl := &Failure{URL: url, Referrer: e.referrer, Depth: e.depth, Attempts: e.attempts, Code: code, Reason: reason}
	retry := retryable && e.attempts < f.maxTry
	fl.Final = !retry
	delete(f.claims, url)
	f.del("c/", url)
	f.putFailure(fl)
	f.journal++
	if retry {
		e.worker = ""
		f.pending[url] = e
		heap.Push(&f.heap, e)
		f.putEntry("p/", e)
	} else {
		f.failed[url] = fl
	}
	if err := f.commitTx(); err != nil {
		return false, err
	}
	f.cond.Broadcast()
	return retry, nil
}

// Journal records a failure event that never entered the queue — e.g.
// a subtree abandoned beyond the stable depth — so a second pass can
// find it. Deduped by URL.
func (f *refFrontier) Journal(fl Failure) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errClosed
	}
	if _, ok := f.failed[fl.URL]; ok {
		return nil
	}
	fl.Final = true
	f.failed[fl.URL] = &fl
	f.journal++
	f.putFailure(&fl)
	return f.commitTx()
}

// Drained reports whether the crawl is complete: nothing pending and
// nothing claimed.
func (f *refFrontier) Drained() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pending) == 0 && len(f.claims) == 0
}

// Close wakes every ClaimWait with WaitClosed. Durable state is left
// intact for the next open.
func (f *refFrontier) Close() {
	f.mu.Lock()
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Records returns the completed records sorted by URL.
func (f *refFrontier) Records() []*PageRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*PageRecord, 0, len(f.done))
	for _, r := range f.done {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Record returns the completed record for url, if any.
func (f *refFrontier) Record(url string) (*PageRecord, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.done[url]
	return r, ok
}

// Prior returns the previous cycle's record for url, if any.
func (f *refFrontier) Prior(url string) (*PageRecord, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.prior[url]
	return r, ok
}

// Failures returns the terminal failure journal sorted by URL.
func (f *refFrontier) Failures() []*Failure {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*Failure, 0, len(f.failed))
	for _, fl := range f.failed {
		out = append(out, fl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Counts snapshots the frontier's state.
func (f *refFrontier) Counts() Counts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Counts{
		Pending:        len(f.pending),
		Claimed:        len(f.claims),
		Done:           len(f.done),
		TerminalFailed: len(f.failed),
		Journal:        f.journal,
		DupCompletions: f.dups,
		Reclaims:       f.reclaims,
	}
}

// BeginRecrawl stages a new crawl cycle: every done record moves to
// the prior set (where Claim surfaces it for HEAD revalidation) and
// terminal failures are cleared so the new cycle may retry them. The
// move is one atomic transaction — a crash mid-recrawl recovers either
// wholly before or wholly after.
func (f *refFrontier) BeginRecrawl() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errClosed
	}
	for url, rec := range f.done {
		f.del("d/", url)
		f.putRecord("r/", rec)
	}
	if f.store != nil {
		for _, key := range f.store.Keys(f.ns + "f/") {
			f.tx = append(f.tx, cabinet.Op{Del: true, Key: key})
		}
	}
	if err := f.commitTx(); err != nil {
		return err
	}
	for url, rec := range f.done {
		f.prior[url] = rec
	}
	f.done = make(map[string]*PageRecord)
	f.failed = make(map[string]*Failure)
	f.journal = 0
	return nil
}
