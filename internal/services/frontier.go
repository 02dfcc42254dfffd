package services

import (
	"fmt"
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
// A fetcher's turn is one round trip: complete (or fail) answers with
// the worker's next claim, committed in the same frontier transaction
// as the completion. A request that finds no work is parked, not
// answered "wait": the service answers it when work arrives or the
// crawl drains. Parking is volatile — a crash forgets it, and the
// worker's retry after its reply timeout asks again.
//
// Link admission is server-side: completions feed their records' links
// back through the service's admit predicate, keeping the policy (and
// the depth-lowering re-expansion it entails) in exactly one place.

// Frontier operations (FolderOp values).
const (
	// FrontierClaim leases the next pending URL to the caller's worker id.
	FrontierClaim = "claim"
	// FrontierComplete marks a claimed URL done with its fetch record,
	// enqueues the record's admissible links and leases the next URL.
	FrontierComplete = "complete"
	// FrontierFail reports a fetch failure (retryable or terminal) and
	// leases the next URL.
	FrontierFail = "fail"
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
	// FolderFrURL is the operation's subject URL.
	FolderFrURL = "_FRURL"
	// FolderFrState is a claim reply's outcome: "claimed" or "drained".
	FolderFrState = "_FRSTATE"
	// FolderFrClaim carries a claim as "depth|attempts|referrer".
	FolderFrClaim = "_FRCLAIM"
	// FolderFrRecord carries frontier.PageRecords, one Encode per element.
	FolderFrRecord = "_FRRECORD"
	// FolderFrPrior carries the previous cycle's record on a claim.
	FolderFrPrior = "_FRPRIOR"
	// FolderFrLinks carries seed links as "depth|referrer|url" rows.
	FolderFrLinks = "_FRLINKS"
	// FolderFrCode / FolderFrReason classify a failure.
	FolderFrCode   = "_FRCODE"
	FolderFrReason = "_FRREASON"
	// FolderFrRetryable marks a failure retryable ("1") or terminal.
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

// parkedClaim is a request owed a claim the frontier could not yet give.
type parkedClaim struct {
	worker string
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
		// answer is the reply owed a worker whose next claim is cl: the
		// claim, "drained", or nil while outstanding claims may still
		// feed the queue.
		answer := func(cl *frontier.Claim) *briefcase.Briefcase {
			resp := briefcase.New()
			switch {
			case cl != nil:
				setClaim(resp, cl)
			case fr.Drained():
				resp.SetString(FolderFrState, FrontierStateDrained)
			default:
				return nil
			}
			return resp
		}
		// next answers req, or parks it when there is no answer yet.
		next := func(req *briefcase.Briefcase, worker string, cl *frontier.Claim) *briefcase.Briefcase {
			resp := answer(cl)
			if resp == nil {
				parked = append(parked, parkedClaim{worker, req})
			}
			return resp
		}
		// serveParked runs after anything that can add work or drain the
		// crawl, and answers parked requests, oldest first, until the
		// work runs out.
		serveParked := func() {
			for len(parked) > 0 {
				p := parked[0]
				cl, _ := fr.Claim(p.worker)
				resp := answer(cl)
				if resp == nil {
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
			case FrontierClaim:
				worker, ok := req.GetString(FolderFrWorker)
				if !ok {
					return nil, fmt.Errorf("ag_frontier: %w: claim without worker", ErrBadRequest)
				}
				unpark(worker)
				cl, _ := fr.Claim(worker)
				return next(req, worker, cl), nil
			case FrontierComplete:
				worker, url, err := subject(req, op)
				if err != nil {
					return nil, err
				}
				rec, ok, err := recordIn(req, FolderFrRecord)
				if err != nil {
					return nil, fmt.Errorf("ag_frontier: %w: bad record: %v", ErrBadRequest, err)
				}
				if !ok {
					return nil, fmt.Errorf("ag_frontier: %w: complete without record", ErrBadRequest)
				}
				unpark(worker)
				cl, err := fr.CompleteNext(url, worker, rec, admit)
				if err != nil {
					return nil, err
				}
				resp = next(req, worker, cl)
				serveParked()
				return resp, nil
			case FrontierFail:
				worker, url, err := subject(req, op)
				if err != nil {
					return nil, err
				}
				code, _ := req.GetString(FolderFrCode)
				reason, _ := req.GetString(FolderFrReason)
				retryable, _ := req.GetString(FolderFrRetryable)
				unpark(worker)
				if _, err := fr.Fail(url, worker, code, reason, retryable == "1"); err != nil {
					return nil, err
				}
				cl, _ := fr.Claim(worker)
				resp = next(req, worker, cl)
				serveParked()
				return resp, nil
			case FrontierAdd:
				f, err := req.Folder(FolderFrLinks)
				if err != nil {
					return nil, fmt.Errorf("ag_frontier: %w: add without links", ErrBadRequest)
				}
				var links []frontier.Link
				for _, row := range f.Strings() {
					parts := strings.SplitN(row, "|", 3)
					if len(parts) != 3 {
						return nil, fmt.Errorf("ag_frontier: %w: bad link row %q", ErrBadRequest, row)
					}
					depth, err := strconv.Atoi(parts[0])
					if err != nil || depth < 0 {
						return nil, fmt.Errorf("ag_frontier: %w: bad depth in %q", ErrBadRequest, row)
					}
					links = append(links, frontier.Link{URL: parts[2], Referrer: parts[1], Depth: depth})
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

// subject reads the worker and URL a complete or fail names.
func subject(req *briefcase.Briefcase, op string) (worker, url string, err error) {
	worker, ok := req.GetString(FolderFrWorker)
	if !ok {
		return "", "", fmt.Errorf("ag_frontier: %w: %s without worker", ErrBadRequest, op)
	}
	url, ok = req.GetString(FolderFrURL)
	if !ok {
		return "", "", fmt.Errorf("ag_frontier: %w: %s without URL", ErrBadRequest, op)
	}
	return worker, url, nil
}

// setClaim writes a claim reply.
func setClaim(resp *briefcase.Briefcase, cl *frontier.Claim) {
	resp.SetString(FolderFrState, FrontierStateClaimed)
	resp.SetString(FolderFrURL, cl.URL)
	resp.SetString(FolderFrClaim, strconv.Itoa(cl.Depth)+"|"+strconv.Itoa(cl.Attempts)+"|"+cl.Referrer)
	if cl.Prior != nil {
		resp.Ensure(FolderFrPrior).AppendAlias(cl.Prior.Encode())
	}
}

// parseClaim reads a claim reply: the state, and for "claimed" the
// claim. A reply that does not parse is an ErrBadRequest, never a claim
// at depth 0.
func parseClaim(resp *briefcase.Briefcase) (*frontier.Claim, string, error) {
	state, _ := resp.GetString(FolderFrState)
	switch state {
	case FrontierStateDrained:
		return nil, state, nil
	case FrontierStateClaimed:
	default:
		return nil, "", fmt.Errorf("ag_frontier: %w: claim state %q", ErrBadRequest, state)
	}
	url, ok := resp.GetString(FolderFrURL)
	if !ok {
		return nil, "", fmt.Errorf("ag_frontier: %w: claim without URL", ErrBadRequest)
	}
	meta, _ := resp.GetString(FolderFrClaim)
	parts := strings.SplitN(meta, "|", 3)
	if len(parts) != 3 {
		return nil, "", fmt.Errorf("ag_frontier: %w: claim metadata %q", ErrBadRequest, meta)
	}
	depth, derr := strconv.Atoi(parts[0])
	attempts, aerr := strconv.Atoi(parts[1])
	if derr != nil || aerr != nil || depth < 0 || attempts < 0 {
		return nil, "", fmt.Errorf("ag_frontier: %w: claim metadata %q", ErrBadRequest, meta)
	}
	prior, _, err := recordIn(resp, FolderFrPrior)
	if err != nil {
		return nil, "", fmt.Errorf("ag_frontier: %w: bad prior record: %v", ErrBadRequest, err)
	}
	return &frontier.Claim{URL: url, Referrer: parts[2], Depth: depth, Attempts: attempts, Prior: prior}, state, nil
}

// recordIn decodes the record in folder's first element; ok is false
// when the folder is absent.
func recordIn(b *briefcase.Briefcase, folder string) (rec *frontier.PageRecord, ok bool, err error) {
	f, ferr := b.Folder(folder)
	if ferr != nil {
		return nil, false, nil
	}
	raw, err := f.Element(0)
	if err != nil {
		return nil, true, err
	}
	rec, err = frontier.DecodeRecord(raw)
	return rec, true, err
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

// Claim leases the next URL. The state is FrontierStateClaimed, with a
// non-nil claim, or FrontierStateDrained: a claim that finds no work
// waits at the service until work arrives or the crawl drains.
func (c FrontierClient) Claim(ctx *agent.Context, worker string) (*frontier.Claim, string, error) {
	req := briefcase.New()
	req.SetString(FolderOp, FrontierClaim)
	req.SetString(FolderFrWorker, worker)
	return c.next(ctx, req)
}

// Complete reports a fetch record for a claimed URL and returns the
// worker's next claim, as Claim does.
func (c FrontierClient) Complete(ctx *agent.Context, url, worker string, rec *frontier.PageRecord) (*frontier.Claim, string, error) {
	req := briefcase.New()
	req.SetString(FolderOp, FrontierComplete)
	req.SetString(FolderFrWorker, worker)
	req.SetString(FolderFrURL, url)
	req.Ensure(FolderFrRecord).AppendAlias(rec.Encode())
	return c.next(ctx, req)
}

// Fail reports a fetch failure for a claimed URL and returns the
// worker's next claim, as Claim does.
func (c FrontierClient) Fail(ctx *agent.Context, url, worker, code, reason string, retryable bool) (*frontier.Claim, string, error) {
	req := briefcase.New()
	req.SetString(FolderOp, FrontierFail)
	req.SetString(FolderFrWorker, worker)
	req.SetString(FolderFrURL, url)
	req.SetString(FolderFrCode, code)
	req.SetString(FolderFrReason, reason)
	if retryable {
		req.SetString(FolderFrRetryable, "1")
	}
	return c.next(ctx, req)
}

func (c FrontierClient) next(ctx *agent.Context, req *briefcase.Briefcase) (*frontier.Claim, string, error) {
	resp, err := c.call(ctx, req)
	if err != nil {
		return nil, "", err
	}
	return parseClaim(resp)
}

// Add seeds links into the frontier (subject to the service's admit
// predicate).
func (c FrontierClient) Add(ctx *agent.Context, links []frontier.Link) error {
	req := briefcase.New()
	req.SetString(FolderOp, FrontierAdd)
	f := req.Ensure(FolderFrLinks)
	for _, l := range links {
		f.AppendString(fmt.Sprintf("%d|%s|%s", l.Depth, l.Referrer, l.URL))
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
