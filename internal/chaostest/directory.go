package chaostest

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/core"
	"tax/internal/directory"
	"tax/internal/faults"
	"tax/internal/firewall"
	"tax/internal/simnet"
)

// DirNodes are the directory plane members every directory scenario
// boots (plus one plain client host driving the storm).
var DirNodes = []string{"d1", "d2", "d3"}

// DirectoryScenario is one chaos run against the directory plane: a
// register/move/lookup storm from concurrent workers while directory
// nodes crash and partition at seeded points, then an invariant audit
// over every shard.
type DirectoryScenario struct {
	// Seed drives the message-level fault plan and the storm's derived
	// choices (which owner to crash, which replica to partition).
	Seed int64
	// Names is the agent population registering and moving (default 60).
	Names int
	// Moves is how many times each name re-binds after registering
	// (default 3) — each move is the wrapper's per-hop renewal.
	Moves int
	// Drop, Duplicate, Delay are per-transfer fault probabilities.
	Drop, Duplicate, Delay float64
	// MaxDelay bounds injected jitter.
	MaxDelay time.Duration
	// CrashOwner crashes the shard owner of the seed-chosen victim name
	// once half the storm's writes are in flight, and restarts it after
	// the storm (owner-crash-during-write).
	CrashOwner bool
	// PartitionReplica cuts the victim's replica off from the rest of
	// the plane at the same midpoint, healing after the storm
	// (partitioned-replica: writes to that shard lose their quorum).
	PartitionReplica bool
}

// dirWorkers is a directory storm's concurrent client-agent count.
const dirWorkers = 4

// dirTTL is the plane's lease length: it outlives the storm, and the
// run's final phase advances the clocks past it to prove expiry is
// typed.
const dirTTL = 5 * time.Minute

// DirectoryResult is the outcome of one directory chaos run. The
// invariant fields must hold on every seed; the counters describe the
// storm (they vary with scheduling and are not part of the JSON).
type DirectoryResult struct {
	// Acked counts acknowledged writes (register/move/drop).
	Acked int
	// Failed counts writes refused with a typed or transport error.
	Failed int
	// Lookups / FailedLookups count resolution attempts.
	Lookups, FailedLookups int

	// LostAcked lists acknowledged writes no shard can account for
	// (name@version). Invariant: empty.
	LostAcked []string
	// Divergent lists (name, version) pairs observed at two different
	// locations. Invariant: empty.
	Divergent []string
	// UntypedErrors counts remote verdicts that crossed the wire
	// without a registered error code. Invariant: zero.
	UntypedErrors int
	// ExpiredTyped reports that, after the clocks passed the lease TTL,
	// every probed binding resolved to the typed ns_expired. Invariant:
	// true.
	ExpiredTyped bool
	// FaultLog is the plan's canonical JSON log.
	FaultLog []byte
}

// invariants returns the run's invariant outcomes — and only those, so
// the sweep's JSON is byte-identical across reruns of the same seed
// (the raw counters shift with goroutine scheduling; the invariants
// must not).
func (r DirectoryResult) invariants(seed int64) ([]byte, error) {
	return json.Marshal(struct {
		Seed          int64    `json:"seed"`
		LostAcked     []string `json:"lost_acked"`
		Divergent     []string `json:"divergent"`
		UntypedErrors int      `json:"untyped_errors"`
		ExpiredTyped  bool     `json:"expired_typed"`
		AckedAnyWrite bool     `json:"acked_any_write"`
	}{seed, emptyNotNil(r.LostAcked), emptyNotNil(r.Divergent), r.UntypedErrors, r.ExpiredTyped, r.Acked > 0})
}

func emptyNotNil(s []string) []string {
	if s == nil {
		return []string{}
	}
	return s
}

// dirObservations accumulates every (name, version) → location the
// plane ever asserted — write acks, lookup answers, and the final shard
// audit all feed it; a second location for a pair is a split brain.
type dirObservations struct {
	mu    sync.Mutex
	seen  map[string]string // "name@version" -> location
	split []string
}

func (o *dirObservations) record(name string, version uint64, location string) {
	key := fmt.Sprintf("%s@%d", name, version)
	o.mu.Lock()
	defer o.mu.Unlock()
	if prev, ok := o.seen[key]; ok {
		if prev != location {
			o.split = append(o.split, key+": "+prev+" vs "+location)
		}
		return
	}
	o.seen[key] = location
}

// RunDirectory executes one directory chaos scenario to its audit.
func RunDirectory(sc DirectoryScenario) (DirectoryResult, error) {
	if sc.Names <= 0 {
		sc.Names = 60
	}
	if sc.Moves <= 0 {
		sc.Moves = 3
	}

	s, err := core.NewSystem(simnet.LAN100)
	if err != nil {
		return DirectoryResult{}, err
	}
	defer s.Close()
	ring, err := s.EnableDirectory(core.DirectoryConfig{
		Nodes:      DirNodes,
		Replicas:   2,
		TTL:        dirTTL,
		AckTimeout: 400 * time.Millisecond,
	})
	if err != nil {
		return DirectoryResult{}, err
	}
	for _, h := range append(append([]string(nil), DirNodes...), "c") {
		if _, err := s.AddNode(h, core.NodeOptions{NoCVM: true, NoServices: h == "c", DedupWindow: 256}); err != nil {
			return DirectoryResult{}, err
		}
	}

	plan := faults.New(faults.Config{
		Seed:      sc.Seed,
		Drop:      sc.Drop,
		Duplicate: sc.Duplicate,
		Delay:     sc.Delay,
		MaxDelay:  sc.MaxDelay,
	})
	plan.Bind(s.Net)

	client, err := s.DirectoryClient()
	if err != nil {
		return DirectoryResult{}, err
	}
	client.Timeout = 600 * time.Millisecond

	// The victim name decides which shard the scheduled faults target:
	// its owner is the crash victim, its replica the partition victim.
	names := make([]string, sc.Names)
	for i := range names {
		names[i] = fmt.Sprintf("agent-%03d", i)
	}
	victim := names[int(sc.Seed%int64(sc.Names)+int64(sc.Names))%sc.Names]
	victimOwners := ring.Owners(victim)

	var (
		res   DirectoryResult
		obs   = dirObservations{seen: make(map[string]string)}
		mu    sync.Mutex // guards the counters and ackedMax
		acked = make(map[string]uint64)
	)
	cn, err := s.Node("c")
	if err != nil {
		return DirectoryResult{}, err
	}

	classify := func(err error) {
		var rerr *firewall.RemoteError
		if errors.As(err, &rerr) && rerr.Code == "" {
			res.UntypedErrors++
		}
	}

	// Midpoint trigger: once every worker has finished half its names,
	// the scheduled faults fire while the second half's writes are in
	// flight.
	var halfway sync.WaitGroup
	halfway.Add(dirWorkers)
	faulted := make(chan struct{})
	go func() {
		halfway.Wait()
		if sc.CrashOwner {
			s.Net.Crash(victimOwners[0])
		}
		if sc.PartitionReplica && len(victimOwners) > 1 {
			for _, peer := range append(append([]string(nil), DirNodes...), "c") {
				if peer != victimOwners[1] {
					s.Net.Partition(victimOwners[1], peer)
				}
			}
		}
		close(faulted)
	}()

	var wg sync.WaitGroup
	for w := 0; w < dirWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			reg, err := cn.FW.Register("test", "system", fmt.Sprintf("storm-%d", w))
			if err != nil {
				return
			}
			ctx := agent.NewContext(cn.FW, reg, briefcase.New(), nil, nil)
			half := false
			for i := w; i < sc.Names; i += dirWorkers {
				if !half && i >= sc.Names/2 {
					half = true
					halfway.Done()
				}
				name := names[i]
				for m := 0; m <= sc.Moves; m++ {
					loc := fmt.Sprintf("tacoma://hop-%d//vm_go", m)
					err := client.Bind(ctx, name, loc)
					mu.Lock()
					if err == nil {
						res.Acked++
					} else {
						res.Failed++
					}
					mu.Unlock()
					if err != nil {
						classifyLocked(&mu, classify, err)
						continue
					}
					// The ack names the version the owner assigned; that
					// (version, location) pair is now a plane-wide promise.
					b, rerr := client.Resolve(ctx, name)
					mu.Lock()
					res.Lookups++
					mu.Unlock()
					if rerr != nil {
						mu.Lock()
						res.FailedLookups++
						mu.Unlock()
						classifyLocked(&mu, classify, rerr)
						continue
					}
					obs.record(name, b.Version, b.Location)
					mu.Lock()
					if b.Version > acked[name] {
						acked[name] = b.Version
					}
					mu.Unlock()
				}
			}
			if !half {
				halfway.Done()
			}
		}(w)
	}
	wg.Wait()
	<-faulted

	// The storm is over: heal the plane, let every member reconverge.
	for _, a := range DirNodes {
		for _, b := range append(append([]string(nil), DirNodes...), "c") {
			if a != b && s.Net.Partitioned(a, b) {
				s.Net.Heal(a, b)
			}
		}
	}
	for _, n := range DirNodes {
		if s.Net.Crashed(n) {
			s.Net.Restart(n)
		}
	}
	members := make([]*core.Node, 0, len(DirNodes))
	for _, n := range DirNodes {
		node, err := s.Node(n)
		if err != nil {
			return DirectoryResult{}, err
		}
		members = append(members, node)
	}
	settleDirectory(members)

	// Audit. Every shard record feeds the uniqueness check, and every
	// acked version must be covered by some member of its owner set:
	// ack ⇒ journaled on owner and every replica ⇒ at least the
	// surviving copies still carry it (a higher version is a later
	// acked or retried write and also accounts for it).
	for _, node := range members {
		for _, b := range node.Dir.Shard().Bindings() {
			if !b.Dropped {
				obs.record(b.Name, b.Version, b.Location)
			}
		}
	}
	for _, name := range names {
		want := acked[name]
		if want == 0 {
			continue
		}
		var have uint64
		for _, node := range members {
			if !ring.Holds(node.Name, name) {
				continue
			}
			if b, ok := node.Dir.Shard().Get(name); ok && b.Version > have {
				have = b.Version
			}
		}
		if have < want {
			res.LostAcked = append(res.LostAcked, fmt.Sprintf("%s@%d (max surviving %d)", name, want, have))
		}
	}
	res.Divergent = obs.split
	sort.Strings(res.LostAcked)
	sort.Strings(res.Divergent)

	// Expiry phase: the agents stop renewing, virtual time passes the
	// TTL on every member, and the probes must come back as the typed
	// ns_expired — never the dead location, never an untyped string.
	for _, node := range members {
		node.Host.Charge(dirTTL + time.Second)
	}
	res.ExpiredTyped = true
	probeReg, err := cn.FW.Register("test", "system", "expiry-probe")
	if err != nil {
		return res, err
	}
	pctx := agent.NewContext(cn.FW, probeReg, briefcase.New(), nil, nil)
	probed := 0
	for _, name := range names {
		if acked[name] == 0 {
			continue
		}
		_, err := client.Resolve(pctx, name)
		if !errors.Is(err, directory.ErrExpired) {
			res.ExpiredTyped = false
		}
		if probed++; probed >= 8 {
			break
		}
	}

	if lj, err := plan.LogJSON(); err == nil {
		res.FaultLog = lj
	}
	return res, nil
}

func classifyLocked(mu *sync.Mutex, classify func(error), err error) {
	mu.Lock()
	defer mu.Unlock()
	classify(err)
}

// settleDirectory resyncs every member and waits until the plane's
// shard contents stop changing (three stable polls), so the audit reads
// a quiescent state.
func settleDirectory(members []*core.Node) {
	snapshot := func() string {
		var sb []string
		for _, n := range members {
			for _, b := range n.Dir.Shard().Bindings() {
				sb = append(sb, fmt.Sprintf("%s/%s@%d", n.Name, b.Name, b.Version))
			}
		}
		sort.Strings(sb)
		return fmt.Sprint(sb)
	}
	for _, n := range members {
		_ = n.Dir.Resync()
	}
	last, stable := snapshot(), 0
	for i := 0; i < 100 && stable < 3; i++ {
		time.Sleep(10 * time.Millisecond)
		cur := snapshot()
		if cur == last {
			stable++
		} else {
			last, stable = cur, 0
		}
	}
}
