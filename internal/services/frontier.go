package services

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/frontier"
	"tax/internal/vm"
)

// ag_frontier exposes one shared crawl frontier (internal/frontier) as
// a service agent, so a fleet of fetcher agents on other hosts can
// claim, complete, and fail URLs over the firewall. The frontier's
// transactions are durable in the host's cabinet; every operation is
// designed for at-least-once delivery — claims re-issue to the same
// worker after a lost reply, completions are idempotent — so clients
// simply retry through crashes and drops.
//
// A fetcher's turn is one round trip for a lease of up to k URLs: the
// batch reports the records and failures of the worker's last lease
// and answers with its next, committed in one frontier transaction
// (frontier.CompleteBatch). A request that finds no work is parked, not
// answered "wait": the service answers it when work arrives or the
// crawl drains. Parking is volatile — a crash forgets it, and the
// worker's retry after its reply timeout asks again.
//
// Link admission is server-side: completions feed their records' links
// back through the service's admit predicate, keeping the policy (and
// the depth-lowering re-expansion it entails) in exactly one place.
//
// Lists travel as parallel folders, one element per item in each: a
// failure's reason and a link's referrer are free text, so no field is
// joined to another with a separator that could occur in it.

// Frontier operations (FolderOp values).
const (
	// FrontierBatch marks the worker's fetched URLs done with their
	// records, enqueues the records' admissible links, applies its fetch
	// failures, and leases it up to FolderFrLease URLs.
	FrontierBatch = "batch"
	// FrontierAdd seeds links directly (the coordinator's start URL).
	FrontierAdd = "add"
	// FrontierCounts returns the frontier's state snapshot.
	FrontierCounts = "counts"
	// FrontierRecords returns every completed record.
	FrontierRecords = "records"
)

// Frontier folders.
const (
	// FolderFrWorker is the caller's stable worker id.
	FolderFrWorker = "_FRWORKER"
	// FolderFrURL carries URLs: a reply's claims, a batch's failures or
	// the links an add seeds, one element each.
	FolderFrURL = "_FRURL"
	// FolderFrState is a claim reply's outcome: "claimed" or "drained".
	FolderFrState = "_FRSTATE"
	// FolderFrClaim carries each claim as "depth|attempts|referrer".
	FolderFrClaim = "_FRCLAIM"
	// FolderFrRecord carries frontier.PageRecords, one Encode per element.
	FolderFrRecord = "_FRRECORD"
	// FolderFrPrior carries each claim's previous-cycle record, an empty
	// element for a claim without one; absent when no claim has one.
	FolderFrPrior = "_FRPRIOR"
	// FolderFrLease is a batch's k, the most URLs the worker will hold.
	FolderFrLease = "_FRLEASE"
	// FolderFrDepth and FolderFrReferrer carry each seeded link's depth
	// and referrer.
	FolderFrDepth    = "_FRDEPTH"
	FolderFrReferrer = "_FRREFERRER"
	// FolderFrCode / FolderFrReason classify each failure.
	FolderFrCode   = "_FRCODE"
	FolderFrReason = "_FRREASON"
	// FolderFrRetryable marks each failure retryable ("1") or terminal ("0").
	FolderFrRetryable = "_FRRETRY"
	// FolderFrCounts carries a counts snapshot as
	// "pending|claimed|done|failed|journal|dups|reclaims".
	FolderFrCounts = "_FRCOUNTS"
)

// Claim states in FolderFrState.
const (
	FrontierStateClaimed = "claimed"
	FrontierStateDrained = "drained"
)

// parkedClaim is a request owed up to k claims the frontier could not
// yet give.
type parkedClaim struct {
	worker string
	k      int
	req    *briefcase.Briefcase
}

// NewAgFrontier returns the ag_frontier handler serving fr. admit
// filters link feedback (nil admits everything): it receives each
// discovered link's URL and depth and decides whether the fleet should
// fetch it — the crawl's prefix and depth constraints, applied at the
// single point every link flows through.
func NewAgFrontier(fr *frontier.Frontier, admit func(url string, depth int) bool) vm.Handler {
	if admit == nil {
		admit = func(string, int) bool { return true }
	}
	return func(ctx *agent.Context) error {
		// At most one parked request per worker, oldest first: a worker
		// that asks again has given up on its earlier request.
		var parked []parkedClaim
		unpark := func(worker string) {
			for i, p := range parked {
				if p.worker == worker {
					parked = append(parked[:i], parked[i+1:]...)
					return
				}
			}
		}
		// answer is the reply owed a worker whose next claims are cls:
		// the claims, "drained", or nil while outstanding claims may
		// still feed the queue.
		answer := func(cls []*frontier.Claim) *briefcase.Briefcase {
			resp := briefcase.New()
			switch {
			case len(cls) > 0:
				setClaims(resp, cls)
			case fr.Drained():
				resp.SetString(FolderFrState, FrontierStateDrained)
			default:
				return nil
			}
			return resp
		}
		// next answers req, or parks it when there is no answer yet.
		next := func(req *briefcase.Briefcase, worker string, k int, cls []*frontier.Claim) *briefcase.Briefcase {
			resp := answer(cls)
			if resp == nil {
				parked = append(parked, parkedClaim{worker, k, req})
			}
			return resp
		}
		// serveParked runs after anything that can add work or drain the
		// crawl, and answers parked requests, oldest first, until the
		// work runs out.
		serveParked := func() {
			for len(parked) > 0 {
				p := parked[0]
				cls, err := fr.CompleteBatch(p.worker, nil, nil, p.k, nil)
				resp := answer(cls)
				if err != nil || resp == nil {
					return
				}
				parked = parked[1:]
				_ = ctx.Reply(p.req, resp)
			}
		}
		return serveLoop(ctx, func(req *briefcase.Briefcase) (*briefcase.Briefcase, error) {
			op, _ := req.GetString(FolderOp)
			resp := briefcase.New()
			switch op {
			case FrontierBatch:
				worker, k, recs, fails, err := parseBatch(req)
				if err != nil {
					return nil, err
				}
				unpark(worker)
				cls, err := fr.CompleteBatch(worker, recs, fails, k, admit)
				if err != nil {
					return nil, err
				}
				resp = next(req, worker, k, cls)
				serveParked()
				return resp, nil
			case FrontierAdd:
				links, err := parseLinks(req)
				if err != nil {
					return nil, err
				}
				if err := fr.Offer(links, admit); err != nil {
					return nil, err
				}
				serveParked()
				resp.SetString("OK", strconv.Itoa(len(links)))
			case FrontierCounts:
				c := fr.Counts()
				resp.SetString(FolderFrCounts, fmt.Sprintf("%d|%d|%d|%d|%d|%d|%d",
					c.Pending, c.Claimed, c.Done, c.TerminalFailed, c.Journal,
					c.DupCompletions, c.Reclaims))
			case FrontierRecords:
				f := resp.Ensure(FolderFrRecord)
				for _, rec := range fr.Records() {
					f.AppendAlias(rec.Encode())
				}
			default:
				return nil, fmt.Errorf("ag_frontier: %w %q", ErrUnknownOp, op)
			}
			return resp, nil
		})
	}
}

// parseBatch reads a batch request: the worker, its lease size k, the
// records it completes and the failures it reports.
func parseBatch(req *briefcase.Briefcase) (worker string, k int, recs []*frontier.PageRecord, fails []frontier.FetchFailure, err error) {
	worker, ok := req.GetString(FolderFrWorker)
	if !ok {
		return "", 0, nil, nil, fmt.Errorf("ag_frontier: %w: batch without worker", ErrBadRequest)
	}
	lease, _ := req.GetString(FolderFrLease)
	if k, err = strconv.Atoi(lease); err != nil || k < 1 {
		return "", 0, nil, nil, fmt.Errorf("ag_frontier: %w: batch lease %q", ErrBadRequest, lease)
	}
	if f, ferr := req.Folder(FolderFrRecord); ferr == nil {
		for _, raw := range f.Bytes() {
			rec, err := frontier.DecodeRecord(raw)
			if err != nil {
				return "", 0, nil, nil, fmt.Errorf("ag_frontier: %w: bad record: %v", ErrBadRequest, err)
			}
			recs = append(recs, rec)
		}
	}
	n := count(req, FolderFrURL)
	cols, err := columns(req, n, FolderFrURL, FolderFrCode, FolderFrReason, FolderFrRetryable)
	if err != nil {
		return "", 0, nil, nil, err
	}
	for i := 0; i < n; i++ {
		retry := cols[3][i]
		if retry != "0" && retry != "1" {
			return "", 0, nil, nil, fmt.Errorf("ag_frontier: %w: failure retryable %q", ErrBadRequest, retry)
		}
		fails = append(fails, frontier.FetchFailure{URL: cols[0][i], Code: cols[1][i], Reason: cols[2][i], Retryable: retry == "1"})
	}
	return worker, k, recs, fails, nil
}

// parseLinks reads the links an add request seeds.
func parseLinks(req *briefcase.Briefcase) ([]frontier.Link, error) {
	n := count(req, FolderFrURL)
	if n == 0 {
		return nil, fmt.Errorf("ag_frontier: %w: add without links", ErrBadRequest)
	}
	cols, err := columns(req, n, FolderFrURL, FolderFrReferrer, FolderFrDepth)
	if err != nil {
		return nil, err
	}
	links := make([]frontier.Link, n)
	for i := range links {
		depth, err := strconv.Atoi(cols[2][i])
		if err != nil || depth < 0 {
			return nil, fmt.Errorf("ag_frontier: %w: bad depth %q", ErrBadRequest, cols[2][i])
		}
		links[i] = frontier.Link{URL: cols[0][i], Referrer: cols[1][i], Depth: depth}
	}
	return links, nil
}

// count is the number of elements in b's folder name; 0 when absent.
func count(b *briefcase.Briefcase, name string) int {
	f, err := b.Folder(name)
	if err != nil {
		return 0
	}
	return f.Len()
}

// columns reads parallel folders that must each hold n elements (an
// absent folder holds none), one column per name.
func columns(b *briefcase.Briefcase, n int, names ...string) ([][]string, error) {
	cols := make([][]string, len(names))
	for i, name := range names {
		if got := count(b, name); got != n {
			return nil, fmt.Errorf("ag_frontier: %w: %s has %d elements, want %d", ErrBadRequest, name, got, n)
		}
		if n > 0 {
			f, _ := b.Folder(name)
			cols[i] = f.Strings()
		}
	}
	return cols, nil
}

// setClaims writes a reply carrying cls, one element per claim in each
// claim folder.
func setClaims(resp *briefcase.Briefcase, cls []*frontier.Claim) {
	resp.SetString(FolderFrState, FrontierStateClaimed)
	urls, meta := resp.Ensure(FolderFrURL), resp.Ensure(FolderFrClaim)
	for _, cl := range cls {
		urls.AppendString(cl.URL)
		meta.AppendString(strconv.Itoa(cl.Depth) + "|" + strconv.Itoa(cl.Attempts) + "|" + cl.Referrer)
	}
	if !slices.ContainsFunc(cls, func(cl *frontier.Claim) bool { return cl.Prior != nil }) {
		return
	}
	priors := resp.Ensure(FolderFrPrior)
	for _, cl := range cls {
		var raw []byte
		if cl.Prior != nil {
			raw = cl.Prior.Encode()
		}
		priors.AppendAlias(raw)
	}
}

// parseClaims reads a claim reply: the state, and for "claimed" the
// claims. A reply that does not parse is an ErrBadRequest, never a
// claim at depth 0.
func parseClaims(resp *briefcase.Briefcase) ([]*frontier.Claim, string, error) {
	state, _ := resp.GetString(FolderFrState)
	switch state {
	case FrontierStateDrained:
		return nil, state, nil
	case FrontierStateClaimed:
	default:
		return nil, "", fmt.Errorf("ag_frontier: %w: claim state %q", ErrBadRequest, state)
	}
	n := count(resp, FolderFrURL)
	if n == 0 {
		return nil, "", fmt.Errorf("ag_frontier: %w: claim without URL", ErrBadRequest)
	}
	cols, err := columns(resp, n, FolderFrURL, FolderFrClaim)
	if err != nil {
		return nil, "", err
	}
	var priors [][]byte
	if f, ferr := resp.Folder(FolderFrPrior); ferr == nil {
		if f.Len() != n {
			return nil, "", fmt.Errorf("ag_frontier: %w: %d prior records for %d claims", ErrBadRequest, f.Len(), n)
		}
		priors = f.Bytes()
	}
	cls := make([]*frontier.Claim, n)
	for i, meta := range cols[1] {
		parts := strings.SplitN(meta, "|", 3)
		if len(parts) != 3 {
			return nil, "", fmt.Errorf("ag_frontier: %w: claim metadata %q", ErrBadRequest, meta)
		}
		depth, derr := strconv.Atoi(parts[0])
		attempts, aerr := strconv.Atoi(parts[1])
		if derr != nil || aerr != nil || depth < 0 || attempts < 0 {
			return nil, "", fmt.Errorf("ag_frontier: %w: claim metadata %q", ErrBadRequest, meta)
		}
		cl := &frontier.Claim{URL: cols[0][i], Referrer: parts[2], Depth: depth, Attempts: attempts}
		if priors != nil && len(priors[i]) > 0 {
			if cl.Prior, err = frontier.DecodeRecord(priors[i]); err != nil {
				return nil, "", fmt.Errorf("ag_frontier: %w: bad prior record: %v", ErrBadRequest, err)
			}
		}
		cls[i] = cl
	}
	return cls, state, nil
}

// FrontierClient drives a remote ag_frontier from a fetcher agent. All
// operations tolerate at-least-once delivery: on a transport failure
// (host down, reply lost) the client retries the whole RPC — the
// service absorbs the duplicates.
type FrontierClient struct {
	// Service is the frontier's agent URI, e.g. "tacoma://mine//ag_frontier".
	Service string
	// Retry is stamped on every request briefcase (transport-level
	// redelivery under drops); zero disables.
	Retry firewall.RetryPolicy
	// Attempts bounds client-level RPC retries across host crashes;
	// default 400.
	Attempts int
	// Backoff is the wall-clock pause between client-level retries;
	// default 5ms. (Wall, not virtual: the caller is waiting out a real
	// restart scheduled by the harness.)
	Backoff time.Duration
	// Timeout bounds each RPC's reply wait; default rpcTimeout.
	Timeout time.Duration
}

func (c FrontierClient) call(ctx *agent.Context, req *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	attempts := c.Attempts
	if attempts <= 0 {
		attempts = 400
	}
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 5 * time.Millisecond
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = rpcTimeout
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		r := req.Clone()
		r.Drop(firewall.FolderMsgID)
		if c.Retry.Enabled() {
			firewall.SetRetryPolicy(r, c.Retry)
		}
		resp, err := ctx.Meet(c.Service, r, timeout)
		if err == nil {
			if rerr, ok := firewall.RemoteErrorFrom(resp); ok {
				// The service processed the request and classified a
				// failure: retrying won't change the answer.
				return nil, rerr
			}
			return resp, nil
		}
		lastErr = err
		time.Sleep(backoff)
	}
	return nil, fmt.Errorf("ag_frontier unreachable after %d attempts: %w", attempts, lastErr)
}

// Claim leases the next URL: a Batch at k = 1 that reports nothing.
// The state is FrontierStateClaimed, with a non-nil claim, or
// FrontierStateDrained.
func (c FrontierClient) Claim(ctx *agent.Context, worker string) (*frontier.Claim, string, error) {
	cls, state, err := c.Batch(ctx, worker, nil, nil, 1)
	if len(cls) == 0 {
		return nil, state, err
	}
	return cls[0], state, nil
}

// Batch reports the records and fetch failures of the worker's lease
// and returns its next lease of up to k URLs: the claims it still
// holds, then fresh ones. The state is FrontierStateClaimed, with at
// least one claim, or FrontierStateDrained: a batch that finds no work
// waits at the service until work arrives or the crawl drains.
func (c FrontierClient) Batch(ctx *agent.Context, worker string, recs []*frontier.PageRecord, fails []frontier.FetchFailure, k int) ([]*frontier.Claim, string, error) {
	req := briefcase.New()
	req.SetString(FolderOp, FrontierBatch)
	req.SetString(FolderFrWorker, worker)
	req.SetString(FolderFrLease, strconv.Itoa(k))
	if len(recs) > 0 {
		f := req.Ensure(FolderFrRecord)
		for _, rec := range recs {
			f.AppendAlias(rec.Encode())
		}
	}
	if len(fails) > 0 {
		urls, codes := req.Ensure(FolderFrURL), req.Ensure(FolderFrCode)
		reasons, retry := req.Ensure(FolderFrReason), req.Ensure(FolderFrRetryable)
		for _, fl := range fails {
			urls.AppendString(fl.URL)
			codes.AppendString(fl.Code)
			reasons.AppendString(fl.Reason)
			if fl.Retryable {
				retry.AppendString("1")
			} else {
				retry.AppendString("0")
			}
		}
	}
	resp, err := c.call(ctx, req)
	if err != nil {
		return nil, "", err
	}
	return parseClaims(resp)
}

// Add seeds links into the frontier (subject to the service's admit
// predicate).
func (c FrontierClient) Add(ctx *agent.Context, links []frontier.Link) error {
	req := briefcase.New()
	req.SetString(FolderOp, FrontierAdd)
	urls, refs, depths := req.Ensure(FolderFrURL), req.Ensure(FolderFrReferrer), req.Ensure(FolderFrDepth)
	for _, l := range links {
		urls.AppendString(l.URL)
		refs.AppendString(l.Referrer)
		depths.AppendString(strconv.Itoa(l.Depth))
	}
	_, err := c.call(ctx, req)
	return err
}

// Counts fetches the frontier's state snapshot.
func (c FrontierClient) Counts(ctx *agent.Context) (frontier.Counts, error) {
	req := briefcase.New()
	req.SetString(FolderOp, FrontierCounts)
	resp, err := c.call(ctx, req)
	if err != nil {
		return frontier.Counts{}, err
	}
	row, _ := resp.GetString(FolderFrCounts)
	var cnt frontier.Counts
	if _, err := fmt.Sscanf(row, "%d|%d|%d|%d|%d|%d|%d",
		&cnt.Pending, &cnt.Claimed, &cnt.Done, &cnt.TerminalFailed,
		&cnt.Journal, &cnt.DupCompletions, &cnt.Reclaims); err != nil {
		return frontier.Counts{}, fmt.Errorf("ag_frontier: bad counts %q", row)
	}
	return cnt, nil
}

// Records fetches every completed record.
func (c FrontierClient) Records(ctx *agent.Context) ([]*frontier.PageRecord, error) {
	req := briefcase.New()
	req.SetString(FolderOp, FrontierRecords)
	resp, err := c.call(ctx, req)
	if err != nil {
		return nil, err
	}
	f, ferr := resp.Folder(FolderFrRecord)
	if ferr != nil {
		return nil, nil
	}
	recs := make([]*frontier.PageRecord, 0, f.Len())
	for _, raw := range f.Bytes() {
		rec, err := frontier.DecodeRecord(raw)
		if err != nil {
			return nil, fmt.Errorf("ag_frontier: bad record: %w", err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}
