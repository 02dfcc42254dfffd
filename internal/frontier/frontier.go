// Package frontier implements the durable, prioritized URL frontier at
// the heart of the staged crawler (PR 10): the paper's recursive Webbot
// becomes frontier + fetcher + parser stages, which is what lets N
// mobile agents mine one site exactly-once and lets a crawl resume
// across host crashes.
//
// The frontier is a priority queue of pending URLs (shallowest depth
// first, URL order breaking ties — a deterministic breadth-first
// wavefront) whose durable state transitions are each one synced WAL
// transaction on the PR 4 cabinet:
//
//	Add            →  put p/<url>                (pending)
//	Claim          →  del p/<url>, put c/<url>   (claimed, tagged with the worker)
//	Complete       →  del c/<url>, put d/<url>   (done: the PageRecord)
//	Fail           →  del c/<url>, put p/ or f/  (re-pend, or journal terminally)
//	CompleteBatch  →  Complete of each record, with Add of its admitted
//	                  links; Fail of each failure; then Claim until the
//	                  worker holds k URLs — one transaction for the lot
//	CompleteNext   →  CompleteBatch of one record at k = 1
//
// A worker's lease is the set of c/ entries tagged with it, one per
// URL, so a multi-URL lease needs no key of its own. Because a claim is
// journaled before the worker sees it, a worker that re-asks after a
// lost reply gets the same URLs back (claims are keyed by worker), and
// a frontier host that crashes recovers every claim from the WAL — no
// URL is ever handed to two workers and none is lost. Complete is
// idempotent by done-key, so retried completions are counted, not
// double-applied. Exactly-once per URL follows from the store's
// atomicity, not from timing.
//
// A transition changes memory first and commits after, so a failed
// commit leaves memory ahead of the store: the frontier then closes
// itself, and only a frontier reopened from the store goes on.
package frontier

import (
	"container/heap"
	"errors"
	"slices"
	"sort"
	"strings"
	"sync"

	"tax/internal/cabinet"
)

// Options configures a Frontier.
type Options struct {
	// Store is the cabinet backing durable state. Nil means a purely
	// in-memory frontier (single-process crawls that don't need crash
	// recovery).
	Store *cabinet.Store
	// Namespace prefixes every cabinet key; default "fr/". Keeps the
	// frontier's keys disjoint from the checkpoint ("cab/") and
	// firewall ("fwpark/", "fwdedup/") planes sharing the store.
	Namespace string
	// MaxAttempts bounds retries per URL before a failure turns
	// terminal; default 3.
	MaxAttempts int
	// AdoptClaims controls what recovery does with claims found in the
	// store. A process that owns its workers (a local crawl resuming
	// after a crash) sets it true: the claiming workers are gone, so
	// claims are re-pended. A frontier *service* leaves it false: its
	// remote workers survive the frontier host's crash, keep their
	// claims, and complete them after restart.
	AdoptClaims bool
}

// WaitState is what ClaimWait resolved to.
type WaitState int

const (
	// WaitClaimed: a claim was issued.
	WaitClaimed WaitState = iota
	// WaitDrained: no pending and no outstanding claims — the crawl is
	// complete.
	WaitDrained
	// WaitClosed: the frontier was shut down.
	WaitClosed
)

// Claim is a URL leased to one worker until completed or failed.
type Claim struct {
	URL      string
	Referrer string
	Depth    int
	Attempts int
	// Prior is the previous crawl cycle's record for this URL, if
	// BeginRecrawl staged one — the worker may revalidate with a HEAD
	// probe instead of refetching.
	Prior *PageRecord
}

// Counts is a snapshot of frontier state for reports and invariants.
type Counts struct {
	Pending        int
	Claimed        int
	Done           int
	TerminalFailed int
	Journal        int // failure-journal entries, including non-final retry attempts
	DupCompletions int // idempotent re-completions absorbed
	Reclaims       int // claims re-issued to the same worker after a lost reply
}

// Frontier is safe for concurrent use by any number of workers.
type Frontier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	store  *cabinet.Store
	ns     string
	maxTry int
	closed bool

	// urls holds every pending, claimed and done URL; its entry's state
	// says which, so a transition changes a field, not a map. Pending
	// entries are also in heap, so the pending count is its length;
	// claimed and done count the other two states.
	urls    map[string]*entry
	claimed int
	done    int
	// byWorker holds each worker's claimed entries in lease order, for
	// re-issue: e is in byWorker[w] exactly while e is claimed by w. A
	// worker's slice stays in the map when it empties, so the next lease
	// reuses it.
	byWorker map[string][]*entry
	prior    map[string]*PageRecord // previous cycle's records (recrawl)
	failed   map[string]*Failure    // terminal failures only
	journal  int                    // total journal entries written
	heap     entryHeap

	// tx is the write set of the transition under construction, reused
	// across transitions. It stays empty without a store.
	tx []cabinet.Op

	// entries and claims hand out every entry the frontier creates and
	// every claim block lease returns, a chunk at a time.
	entries chunk[entry]
	claims  chunk[Claim]

	dups     int
	reclaims int
}

var errClosed = errors.New("frontier: closed")

// New opens a frontier, recovering any durable state in the store's
// namespace.
func New(opts Options) (*Frontier, error) {
	f := &Frontier{
		store:    opts.Store,
		ns:       opts.Namespace,
		maxTry:   opts.MaxAttempts,
		urls:     make(map[string]*entry),
		byWorker: make(map[string][]*entry),
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
			f.pend(e)
		case "c":
			e, err := decodeEntry(val)
			if err != nil {
				return nil, err
			}
			if opts.AdoptClaims {
				adopt = append(adopt, e)
			} else {
				e.state = stateClaimed
				f.urls[e.url] = e
				f.claimed++
				if e.worker != "" {
					f.byWorker[e.worker] = append(f.byWorker[e.worker], e)
				}
			}
		case "d":
			r, err := DecodeRecord(val)
			if err != nil {
				return nil, err
			}
			f.urls[r.URL] = f.entries.add(entry{url: r.URL, state: stateDone, rec: r})
			f.done++
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
		f.pend(e)
	}
	return f, nil
}

// pend makes e a pending URL: in urls and in the heap.
func (f *Frontier) pend(e *entry) {
	e.state = statePending
	f.urls[e.url] = e
	heap.Push(&f.heap, e)
}

func splitKey(ns, key string) (kind, url string) {
	rest := strings.TrimPrefix(key, ns)
	i := strings.IndexByte(rest, '/')
	if i < 0 {
		return rest, ""
	}
	return rest[:i], rest[i+1:]
}

// putEntry, putRecord, putFailure and del add one write to the
// transition's write set. A frontier without a store journals nothing,
// so they encode nothing.
func (f *Frontier) putEntry(kind string, e *entry) {
	if f.store != nil {
		f.tx = append(f.tx, cabinet.Op{Key: f.ns + kind + e.url, Value: e.encode()})
	}
}

func (f *Frontier) putRecord(kind string, r *PageRecord) {
	if f.store != nil {
		f.tx = append(f.tx, cabinet.Op{Key: f.ns + kind + r.URL, Value: r.Encode()})
	}
}

func (f *Frontier) putFailure(fl *Failure) {
	if f.store != nil {
		f.tx = append(f.tx, cabinet.Op{Key: f.ns + "f/" + fl.URL + "#" + itoa(fl.Attempts), Value: fl.encode()})
	}
}

func (f *Frontier) del(kind, url string) {
	if f.store != nil {
		f.tx = append(f.tx, cabinet.Op{Del: true, Key: f.ns + kind + url})
	}
}

// commitTx commits the write set as one transaction. Memory already
// holds its effects, so a failed commit closes the frontier.
func (f *Frontier) commitTx() error {
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
func (f *Frontier) Add(links []Link) (fresh int, lowered []*PageRecord, err error) {
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
// every done record they lower, as CompleteBatch does. admit is called
// with the frontier locked and must not call back into it.
func (f *Frontier) Offer(links []Link, admit func(url string, depth int) bool) error {
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
func (f *Frontier) relax(url, referrer string, depth int) (fresh bool, lowered *PageRecord) {
	if e, ok := f.urls[url]; ok {
		switch e.state {
		case statePending:
			if depth < e.depth {
				e.depth = depth
				e.referrer = referrer
				heap.Fix(&f.heap, e.index)
				f.putEntry("p/", e)
			}
		case stateClaimed:
			if depth < e.depth {
				e.depth = depth
				f.putEntry("c/", e)
			}
		case stateDone:
			if depth < e.rec.Depth {
				e.rec.Depth = depth
				f.putRecord("d/", e.rec)
				return false, e.rec
			}
		}
		return false, nil
	}
	if _, ok := f.failed[url]; ok {
		return false, nil
	}
	e := f.entries.add(entry{url: url, referrer: referrer, depth: depth})
	f.pend(e)
	f.putEntry("p/", e)
	return true, nil
}

// expand offers rec's out-links at rec.Depth+1 through admit, then
// those of every done record the offer lowers, until nothing lowers:
// the recursive crawl's best-depth relaxation, and the only loop that
// re-expands a record.
func (f *Frontier) expand(rec *PageRecord, admit func(url string, depth int) bool) {
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
func (f *Frontier) Claim(worker string) (*Claim, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cl := f.claimLocked(worker)
	return cl, cl != nil
}

// claimLocked leases one URL and commits; nil when there is nothing to
// lease or the commit failed, which closed the frontier.
func (f *Frontier) claimLocked(worker string) *Claim {
	var buf [1]*Claim
	claims := f.lease(worker, 1, buf[:0])
	if f.commitTx() != nil || len(claims) == 0 {
		return nil
	}
	return claims[0]
}

// lease appends to claims every claim worker still holds, re-issued,
// then tops the worker up to k claims from the shallowest pending URLs.
// A top-up short of k waits while other workers hold claims: their
// reports can still fill it, and a lease cut short costs a round trip.
// At k = 1 the only short top-up is none, so this changes nothing.
func (f *Frontier) lease(worker string, k int, claims []*Claim) []*Claim {
	held := f.byWorker[worker]
	n := len(held)
	fresh := min(k-n, f.heap.Len())
	if fresh < k-n && f.claimed > n {
		fresh = 0
	}
	// The lease's claims, re-issued and fresh, are one block.
	block := f.claims.take(n + max(fresh, 0))
	for i, e := range held {
		f.reclaims++
		block[i] = f.claimView(e)
	}
	for i := range fresh {
		e := heap.Pop(&f.heap).(*entry)
		e.state = stateClaimed
		e.worker = worker
		f.claimed++
		f.del("p/", e.url)
		f.putEntry("c/", e)
		held = append(held, e)
		block[n+i] = f.claimView(e)
	}
	for i := range block {
		claims = append(claims, &block[i])
	}
	if len(held) > n {
		f.byWorker[worker] = held
	}
	return claims
}

// release drops a claimed entry from its worker's held claims.
func (f *Frontier) release(e *entry) {
	held := f.byWorker[e.worker]
	if i := slices.Index(held, e); i >= 0 {
		f.byWorker[e.worker] = slices.Delete(held, i, i+1)
	}
}

func (f *Frontier) claimView(e *entry) Claim {
	return Claim{URL: e.url, Referrer: e.referrer, Depth: e.depth, Attempts: e.attempts, Prior: f.prior[e.url]}
}

// ClaimWait blocks until a claim is available, the frontier drains
// (nothing pending, nothing claimed), or it is closed.
func (f *Frontier) ClaimWait(worker string) (*Claim, WaitState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.closed {
			return nil, WaitClosed
		}
		if cl := f.claimLocked(worker); cl != nil {
			return cl, WaitClaimed
		}
		if f.heap.Len() == 0 && f.claimed == 0 {
			return nil, WaitDrained
		}
		f.cond.Wait()
	}
}

// Complete marks url done with its fetch record. Idempotent: a retried
// completion (lost ack) is absorbed and counted. Returns whether this
// call was the first completion. It admits none of the record's links
// and leases nothing; CompleteBatch does both. A record is the same
// whoever fetched it, so unlike Fail, Complete takes any worker's
// report: the claim is released from whichever worker holds it.
func (f *Frontier) Complete(url, worker string, rec *PageRecord) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return false, errClosed
	}
	first := f.completeLocked(url, rec, nil)
	if err := f.commitTx(); err != nil {
		return false, err
	}
	f.cond.Broadcast()
	return first, nil
}

// FetchFailure is a worker's report that it could not fetch a URL it
// holds: Fail's arguments, for a batch. Attempt is the Attempts of the
// claim it fails.
type FetchFailure struct {
	URL       string
	Attempt   int
	Code      string
	Reason    string
	Retryable bool
}

// CompleteBatch is one worker's whole turn over a lease of up to k URLs,
// in one transaction: it completes each record as Complete does, offers
// its links at its depth + 1 through admit (nil admits none) and
// re-expands every done record they lower; applies each failure as
// Fail does; then re-issues every claim the worker still holds and
// leases the shallowest pending URLs until it holds k (see lease for a
// short top-up). claims is empty when the worker is left holding
// nothing. admit is called with the frontier locked and must not call
// back into it.
//
// A record's depth is the frontier's, not the worker's: a claim
// re-discovered shallower while in flight completes, and expands, at
// the shallower depth.
func (f *Frontier) CompleteBatch(worker string, recs []*PageRecord, fails []FetchFailure, k int, admit func(url string, depth int) bool) (claims []*Claim, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.completeBatch(worker, recs, fails, k, admit, nil)
}

// CompleteNext is CompleteBatch of one record at k = 1: the worker's
// next claim, or nil when nothing is pending.
func (f *Frontier) CompleteNext(worker string, rec *PageRecord, admit func(url string, depth int) bool) (*Claim, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	recs := [1]*PageRecord{rec}
	var buf [1]*Claim
	claims, err := f.completeBatch(worker, recs[:], nil, 1, admit, buf[:0])
	if err != nil || len(claims) == 0 {
		return nil, err
	}
	return claims[0], nil
}

// completeBatch is CompleteBatch's body, leasing into claims.
func (f *Frontier) completeBatch(worker string, recs []*PageRecord, fails []FetchFailure, k int, admit func(url string, depth int) bool, claims []*Claim) ([]*Claim, error) {
	if f.closed {
		return nil, errClosed
	}
	for _, rec := range recs {
		f.completeLocked(rec.URL, rec, admit)
	}
	for _, fl := range fails {
		f.failLocked(fl.URL, worker, fl.Attempt, fl.Code, fl.Reason, fl.Retryable)
	}
	claims = f.lease(worker, k, claims)
	if err := f.commitTx(); err != nil {
		return nil, err
	}
	f.cond.Broadcast()
	return claims, nil
}

// completeLocked is the body of every completion: it marks url done
// with rec and, when admit is non-nil, expands rec. A repeated
// completion changes nothing but the duplicate count — the first one
// admitted the links in the same transaction — and returns false.
func (f *Frontier) completeLocked(url string, rec *PageRecord, admit func(url string, depth int) bool) bool {
	e := f.urls[url]
	if e != nil && e.state == stateDone {
		f.dups++
		return false
	}
	switch {
	case e == nil:
		e = f.entries.add(entry{url: url})
		f.urls[url] = e
	case e.state == stateClaimed:
		rec.Depth = e.depth
		f.claimed--
		f.del("c/", url)
		f.release(e)
	default: // pending
		rec.Depth = e.depth
		heap.Remove(&f.heap, e.index)
		f.del("p/", url)
	}
	e.state = stateDone
	e.rec = rec
	f.done++
	f.putRecord("d/", rec)
	if admit != nil {
		f.expand(rec, admit)
	}
	return true
}

// Fail reports worker's fetch failure for a URL it holds; attempt is
// the Attempts of the claim it fails. Retryable failures below the
// attempt cap re-pend the URL (and journal the attempt); anything else
// is journaled terminally. Returns whether the URL was re-queued.
func (f *Frontier) Fail(url, worker string, attempt int, code, reason string, retryable bool) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return false, errClosed
	}
	retry := f.failLocked(url, worker, attempt, code, reason, retryable)
	if err := f.commitTx(); err != nil {
		return false, err
	}
	f.cond.Broadcast()
	return retry, nil
}

// failLocked is the body of every failure. A failure speaks only for
// the reporting worker's own claim at the attempt it names: a URL no
// longer claimed by worker, or claimed again since — a failure repeated
// after a lost reply, once the URL was re-pended and leased to another
// worker or back to this one — is left alone, so a repeat counts no
// second attempt.
func (f *Frontier) failLocked(url, worker string, attempt int, code, reason string, retryable bool) bool {
	e := f.urls[url]
	if e == nil || e.state != stateClaimed || e.worker != worker || e.attempts != attempt {
		return false
	}
	f.release(e)
	e.attempts++
	fl := &Failure{URL: url, Referrer: e.referrer, Depth: e.depth, Attempts: e.attempts, Code: code, Reason: reason}
	retry := retryable && e.attempts < f.maxTry
	fl.Final = !retry
	f.claimed--
	f.del("c/", url)
	f.putFailure(fl)
	f.journal++
	if retry {
		e.worker = ""
		f.pend(e)
		f.putEntry("p/", e)
	} else {
		delete(f.urls, url)
		f.failed[url] = fl
	}
	return retry
}

// Journal records a failure event that never entered the queue — e.g.
// a subtree abandoned beyond the stable depth — so a second pass can
// find it. Deduped by URL.
func (f *Frontier) Journal(fl Failure) error {
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
func (f *Frontier) Drained() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.heap.Len() == 0 && f.claimed == 0
}

// Close wakes every ClaimWait with WaitClosed. Durable state is left
// intact for the next open.
func (f *Frontier) Close() {
	f.mu.Lock()
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Records returns the completed records sorted by URL.
func (f *Frontier) Records() []*PageRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*PageRecord, 0, f.done)
	for _, e := range f.urls {
		if e.state == stateDone {
			out = append(out, e.rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Record returns the completed record for url, if any.
func (f *Frontier) Record(url string) (*PageRecord, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if e := f.urls[url]; e != nil && e.state == stateDone {
		return e.rec, true
	}
	return nil, false
}

// Prior returns the previous cycle's record for url, if any.
func (f *Frontier) Prior(url string) (*PageRecord, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.prior[url]
	return r, ok
}

// Failures returns the terminal failure journal sorted by URL.
func (f *Frontier) Failures() []*Failure {
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
func (f *Frontier) Counts() Counts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Counts{
		Pending:        f.heap.Len(),
		Claimed:        f.claimed,
		Done:           f.done,
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
func (f *Frontier) BeginRecrawl() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errClosed
	}
	for url, e := range f.urls {
		if e.state == stateDone {
			f.del("d/", url)
			f.putRecord("r/", e.rec)
		}
	}
	if f.store != nil {
		for _, key := range f.store.Keys(f.ns + "f/") {
			f.tx = append(f.tx, cabinet.Op{Del: true, Key: key})
		}
	}
	if err := f.commitTx(); err != nil {
		return err
	}
	for url, e := range f.urls {
		if e.state == stateDone {
			f.prior[url] = e.rec
			delete(f.urls, url)
		}
	}
	f.done = 0
	f.failed = make(map[string]*Failure)
	f.journal = 0
	return nil
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// chunk hands out T values a block at a time: the blocks start at
// chunkMin slots and double up to chunkMax, so a small frontier stays
// small and a large one allocates once per chunkMax values. A block is
// never reused, so every value handed out stays valid, and no other
// caller's, for as long as anyone holds it.
type chunk[T any] struct {
	free []T
	next int // slots in the next block
}

const (
	chunkMin = 16
	chunkMax = 256
)

// take returns n zeroed values, contiguous.
func (c *chunk[T]) take(n int) []T {
	if n > len(c.free) {
		size := max(c.next, chunkMin)
		c.next = min(2*size, chunkMax)
		c.free = make([]T, max(size, n))
	}
	vals := c.free[:n:n]
	c.free = c.free[n:]
	return vals
}

// add returns a pointer to a copy of v.
func (c *chunk[T]) add(v T) *T {
	p := &c.take(1)[0]
	*p = v
	return p
}

// entryHeap orders pending entries by (depth, url): the crawl expands
// a deterministic breadth-first wavefront regardless of worker count.
type entryHeap []*entry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].depth != h[j].depth {
		return h[i].depth < h[j].depth
	}
	return h[i].url < h[j].url
}
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *entryHeap) Push(x any) {
	e := x.(*entry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
