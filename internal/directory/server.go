package directory

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/cabinet"
	"tax/internal/firewall"
	"tax/internal/services"
	"tax/internal/vm"
)

// ServiceName is the directory shard service agent's name on every
// plane member.
const ServiceName = "ag_nsd"

// ServiceURI returns the directory service URI on a plane node.
func ServiceURI(node string) string { return "tacoma://" + node + "//" + ServiceName }

// DefaultTTL is the lease length granted on writes when the plane
// config leaves it zero. 30 virtual seconds is several orders of
// magnitude longer than a LAN hop, so an agent renewing per hop never
// races its own lease, while a crashed agent's binding dies promptly.
const DefaultTTL = 30 * time.Second

// Config describes one node's membership in the directory plane.
type Config struct {
	// Node is this node's name (its simnet host name) in the ring.
	Node string
	// Ring is the plane's ownership function; identical on every member.
	Ring *Ring
	// FW is the node's reference monitor; the shard service and its
	// replication workers register on it.
	FW *firewall.Firewall
	// Principal signs the service agents (the host system principal).
	Principal string
	// Store persists the shard (normally the node's file cabinet); nil
	// keeps the shard volatile.
	Store *cabinet.Store
	// TTL is the lease length granted on writes; zero means DefaultTTL,
	// negative disables expiry.
	TTL time.Duration
	// AckTimeout bounds each replica forward and pull RPC; zero = 3s.
	AckTimeout time.Duration
}

// replicationWriters is the replication worker count of each member.
const replicationWriters = 2

func (c Config) ttl() time.Duration {
	switch {
	case c.TTL == 0:
		return DefaultTTL
	case c.TTL < 0:
		return 0
	}
	return c.TTL
}

func (c Config) ackTimeout() time.Duration {
	if c.AckTimeout == 0 {
		return 3 * time.Second
	}
	return c.AckTimeout
}

// Server is one directory plane member: the shard it holds plus the
// serve/replication machinery around it. The serve loop itself never
// performs a remote call — coordinated writes are handed to replication
// workers (each with its own registration and context), so two owners
// forwarding to each other cannot deadlock their serve loops.
type Server struct {
	cfg   Config
	shard *Shard
}

// NewServer builds a plane member. The shard is empty until the
// handler's first run recovers it from the store.
func NewServer(cfg Config) *Server {
	return &Server{cfg: cfg, shard: NewShard(cfg.Store, cfg.ttl())}
}

// Shard exposes the node's shard (management plane, chaostest
// invariant checks).
func (s *Server) Shard() *Shard { return s.shard }

// Ring exposes the plane's ownership function.
func (s *Server) Ring() *Ring { return s.cfg.Ring }

// Node returns this member's ring name.
func (s *Server) Node() string { return s.cfg.Node }

// writeJob is one coordinated record to forward to the replicas. req is
// the client request to acknowledge once every replica journaled the
// record; nil for sweeps (no client waits on a sweep tombstone).
type writeJob struct {
	rec Binding
	req *briefcase.Briefcase
}

// Handler returns the shard service program. Launched like any service
// agent; on restart the same handler recovers the shard from the
// cabinet and anti-entropy-pulls from its peers before serving.
func (s *Server) Handler() vm.Handler {
	return func(ctx *agent.Context) error {
		if err := s.shard.Recover(); err != nil {
			return err
		}
		done := make(chan struct{})
		defer close(done)
		var jobs []chan writeJob
		if s.cfg.Ring.Replicas() > 1 {
			jobs = make([]chan writeJob, replicationWriters)
			for i := range jobs {
				jobs[i] = make(chan writeJob, 64)
				go s.replicate(i, jobs[i], done)
			}
			go s.pull(done)
		}
		lastSweep := ctx.Now()
		for {
			req, err := ctx.Await(0)
			if err != nil {
				if errors.Is(err, firewall.ErrKilled) {
					return nil
				}
				return err
			}
			lastSweep = s.maybeSweep(ctx.Now(), lastSweep, jobs)
			resp, err := s.serve(ctx, req, jobs)
			if err != nil {
				e := briefcase.New()
				e.SetString(firewall.FolderKind, firewall.KindError)
				firewall.SetError(e, err)
				_ = ctx.Reply(req, e)
				continue
			}
			if resp != nil {
				_ = ctx.Reply(req, resp)
			}
		}
	}
}

// serve handles one request. A nil, nil return means the request was
// handed to a replication worker, which replies when the record is on
// every replica.
func (s *Server) serve(ctx *agent.Context, req *briefcase.Briefcase, jobs []chan writeJob) (*briefcase.Briefcase, error) {
	op, _ := req.GetString(services.FolderOp)
	switch op {
	case OpUpdate, OpDrop:
		name, _ := req.GetString(FolderName)
		if name == "" {
			return nil, fmt.Errorf("directory: %w: write without name", services.ErrBadRequest)
		}
		if s.cfg.Ring.Owner(name) != s.cfg.Node {
			return nil, fmt.Errorf("%w: %q is owned by %s", ErrNotOwner, name, s.cfg.Ring.Owner(name))
		}
		loc := ""
		if op == OpUpdate {
			var ok bool
			loc, ok = req.GetString(FolderLocation)
			if !ok {
				// Default to the authenticated sender: "I am here now".
				loc, ok = req.GetString(briefcase.FolderSysSender)
				if !ok {
					return nil, fmt.Errorf("directory: %w: update without location", services.ErrBadRequest)
				}
			}
		}
		rec, err := s.shard.Coordinate(name, loc, op == OpDrop, ctx.Now())
		if err != nil {
			return nil, err
		}
		if jobs == nil {
			return ackFor(rec), nil // replication factor 1: local journal is the quorum
		}
		jobs[int(ringHash(name)%uint64(len(jobs)))] <- writeJob{rec: rec, req: req}
		return nil, nil
	case OpLookup:
		name, _ := req.GetString(FolderName)
		if name == "" {
			return nil, fmt.Errorf("directory: %w: lookup without name", services.ErrBadRequest)
		}
		b, err := s.shard.LookupAt(name, ctx.Now())
		if err != nil {
			return nil, err
		}
		resp := ackFor(b)
		resp.SetString(FolderLocation, b.Location)
		return resp, nil
	case OpApply:
		rows, err := DecodeRows(mustString(req, FolderRows))
		if err != nil {
			return nil, err
		}
		for _, b := range rows {
			if _, err := s.shard.Apply(b); err != nil {
				return nil, err
			}
		}
		resp := briefcase.New()
		resp.SetInt(FolderVersion, int64(len(rows)))
		return resp, nil
	case OpPull:
		peer, _ := req.GetString(FolderNode)
		var rows []Binding
		for _, b := range s.shard.Bindings() {
			if peer == "" || s.cfg.Ring.Holds(peer, b.Name) {
				rows = append(rows, b)
			}
		}
		resp := briefcase.New()
		resp.SetString(FolderRows, EncodeRows(rows))
		return resp, nil
	default:
		return nil, fmt.Errorf("directory: %w %q", services.ErrUnknownOp, op)
	}
}

func mustString(bc *briefcase.Briefcase, folder string) string {
	v, _ := bc.GetString(folder)
	return v
}

// ackFor builds the OK reply for a coordinated or resolved binding.
func ackFor(b Binding) *briefcase.Briefcase {
	resp := briefcase.New()
	resp.SetString(FolderName, b.Name)
	resp.SetInt(FolderVersion, int64(b.Version))
	resp.SetInt(FolderExpire, int64(b.Expires))
	return resp
}

// maybeSweep tombstones expired leases owned by this node, at most once
// per TTL/4 of virtual time. The sweep is a deterministic function of
// the shard and the virtual clock; tombstones replicate like any other
// coordinated write (version bumped by the owner), so replicas converge
// on the sweep too.
func (s *Server) maybeSweep(now, last time.Duration, jobs []chan writeJob) time.Duration {
	ttl := s.cfg.ttl()
	if ttl <= 0 || now-last < ttl/4 {
		return last
	}
	swept, err := s.shard.SweepExpired(now, func(name string) bool {
		return s.cfg.Ring.Owner(name) == s.cfg.Node
	})
	if err != nil {
		return now
	}
	for _, rec := range swept {
		if jobs != nil {
			jobs[int(ringHash(rec.Name)%uint64(len(jobs)))] <- writeJob{rec: rec}
		}
	}
	return now
}

// replicate is a replication worker: it forwards coordinated records to
// the replicas and acknowledges the waiting client only after every
// replica journaled its copy. Any failure turns into a typed ErrNoQuorum
// for the client — the write is not acknowledged, so the plane's
// no-lost-acknowledgement invariant never rests on an unreplicated
// record. Jobs are sharded to workers by name, so forwards for one name
// stay ordered.
func (s *Server) replicate(i int, jobs <-chan writeJob, done <-chan struct{}) {
	reg, err := s.cfg.FW.Register("dirrepl", s.cfg.Principal, fmt.Sprintf("%s.w%d", ServiceName, i))
	if err != nil {
		return
	}
	wctx := agent.NewContext(s.cfg.FW, reg, briefcase.New(), nil, nil)
	for {
		select {
		case <-done:
			return
		case job := <-jobs:
			var ferr error
			for _, peer := range s.cfg.Ring.Owners(job.rec.Name)[1:] {
				req := briefcase.New()
				req.SetString(services.FolderOp, OpApply)
				req.SetString(FolderRows, job.rec.Encode())
				if _, err := wctx.MeetDirect(ServiceURI(peer), req, s.cfg.ackTimeout()); err != nil {
					if errors.Is(err, firewall.ErrKilled) {
						return
					}
					ferr = fmt.Errorf("%w: replica %s: %v", ErrNoQuorum, peer, err)
					break
				}
			}
			if job.req == nil {
				continue // sweep tombstone: nobody waits for the ack
			}
			var resp *briefcase.Briefcase
			if ferr == nil {
				resp = ackFor(job.rec)
			} else {
				resp = briefcase.New()
				resp.SetString(firewall.FolderKind, firewall.KindError)
				firewall.SetError(resp, ferr)
			}
			if err := wctx.Reply(job.req, resp); err != nil && errors.Is(err, firewall.ErrKilled) {
				return
			}
		}
	}
}

// pull runs the anti-entropy pass: ask every peer for the records this
// node should hold and merge them by version. Run once per (re)launch —
// a rejoining node catches up on writes it missed while down; records it
// journaled before the crash are already back via Shard.Recover. Merge
// by version means a drop tombstone is never resurrected and a newer
// location never regresses.
func (s *Server) pull(done <-chan struct{}) {
	reg, err := s.cfg.FW.Register("dirpull", s.cfg.Principal, ServiceName+".pull")
	if err != nil {
		return
	}
	pctx := agent.NewContext(s.cfg.FW, reg, briefcase.New(), nil, nil)
	for _, peer := range s.cfg.Ring.Nodes() {
		if peer == s.cfg.Node {
			continue
		}
		select {
		case <-done:
			return
		default:
		}
		if err := s.pullFrom(pctx, peer); errors.Is(err, firewall.ErrKilled) {
			return
		}
	}
}

// pullFrom merges one peer's view of this node's records.
func (s *Server) pullFrom(pctx *agent.Context, peer string) error {
	req := briefcase.New()
	req.SetString(services.FolderOp, OpPull)
	req.SetString(FolderNode, s.cfg.Node)
	resp, err := pctx.MeetDirect(ServiceURI(peer), req, s.cfg.ackTimeout())
	if err != nil {
		return err
	}
	rows, err := DecodeRows(mustString(resp, FolderRows))
	if err != nil {
		return err
	}
	for _, b := range rows {
		if !s.cfg.Ring.Holds(s.cfg.Node, b.Name) {
			continue
		}
		if _, err := s.shard.Apply(b); err != nil {
			return err
		}
	}
	return nil
}

// Resync runs one synchronous anti-entropy round against every peer
// with a fresh registration (management plane and tests: force a node
// that was partitioned through its restart pull to reconverge).
func (s *Server) Resync() error {
	reg, err := s.cfg.FW.Register("dirpull", s.cfg.Principal, ServiceName+".resync")
	if err != nil {
		return err
	}
	defer s.cfg.FW.Unregister(reg)
	pctx := agent.NewContext(s.cfg.FW, reg, briefcase.New(), nil, nil)
	var firstErr error
	for _, peer := range s.cfg.Ring.Nodes() {
		if peer == s.cfg.Node {
			continue
		}
		if err := s.pullFrom(pctx, peer); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// instPattern matches the trailing instance number of an agent URI
// (minted from a process-global counter, so it differs between seeded
// reruns); Rows masks it to keep management output byte-identical.
var instPattern = regexp.MustCompile(`:[0-9a-f]{1,16}$`)

func maskInstance(s string) string {
	return instPattern.ReplaceAllString(s, ":«i»")
}

// Rows renders one management verb for taxctl dir. All output derives
// from the ring and the local shard (sorted, instance ids masked), so
// rows are byte-identical across seeded reruns.
func (s *Server) Rows(verb string) ([]string, error) {
	switch verb {
	case "ring":
		return s.cfg.Ring.Describe(), nil
	case "counts":
		counts := make(map[string]int, len(s.cfg.Ring.Nodes()))
		for _, b := range s.shard.Bindings() {
			if !b.Dropped {
				counts[s.cfg.Ring.Owner(b.Name)]++
			}
		}
		rows := []string{fmt.Sprintf("counts|node=%s|live=%d", s.cfg.Node, s.shard.Len())}
		for _, n := range s.cfg.Ring.Nodes() {
			rows = append(rows, fmt.Sprintf("shard|%s|held_here=%d", n, counts[n]))
		}
		return rows, nil
	case "leases":
		var rows []string
		for _, b := range s.shard.Bindings() {
			state := "live"
			switch {
			case b.Dropped && b.Expired:
				state = "expired"
			case b.Dropped:
				state = "dropped"
			}
			rows = append(rows, fmt.Sprintf("lease|%s|v%d|loc=%s|exp=%d|%s",
				b.Name, b.Version, maskInstance(b.Location), int64(b.Expires), state))
		}
		if rows == nil {
			rows = []string{"lease|none"}
		}
		return rows, nil
	case "health":
		tomb := 0
		for _, b := range s.shard.Bindings() {
			if b.Dropped {
				tomb++
			}
		}
		rows := []string{fmt.Sprintf("self|%s|records=%d|live=%d|tombstones=%d",
			s.cfg.Node, len(s.shard.Bindings()), s.shard.Len(), tomb)}
		peers := s.cfg.Ring.Nodes()
		sort.Strings(peers)
		for _, p := range peers {
			held := 0
			for _, b := range s.shard.Bindings() {
				if s.cfg.Ring.Owner(b.Name) == p {
					held++
				}
			}
			role := "peer"
			if p == s.cfg.Node {
				role = "self"
			}
			rows = append(rows, fmt.Sprintf("replica|%s|%s|owned_records_held=%d", p, role, held))
		}
		return rows, nil
	default:
		return nil, fmt.Errorf("directory: unknown dir verb %q (want ring|counts|leases|health)", verb)
	}
}
