package chaostest

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/core"
	"tax/internal/faults"
	"tax/internal/firewall"
	"tax/internal/rearguard"
	"tax/internal/simnet"
	"tax/internal/tower"
	"tax/internal/wrapper"
)

// world is the guarded-tour deployment every tour entry point drives:
// home plus Stops, one fault plan bound to the network, a beacon and one
// checkpoint wrapper per agent, and one program whose visit effects are
// idempotent per (agent, stop) — the discipline that turns
// at-least-once execution into exactly-once outcomes.
type world struct {
	sc    Scenario
	n     int    // agents
	store string // home service holding the checkpoints: ag_fs or ag_cabinet
	s     *core.System
	home  *core.Node
	plan  *faults.Plan
	twr   *tower.Collector // nil unless sc.Observability

	mu       sync.Mutex
	attempts map[visit]int // every execution, replays included
	effects  map[visit]int // applied once per visit
	skipped  map[string][]string
}

// visit keys the effect ledger: one agent at one stop.
type visit struct{ agent, host string }

// newWorld boots a world for n ≥ 1 agents whose checkpoints live in the
// home service store. opts carries the cabinet settings every node
// shares. The caller closes w.s.
func newWorld(sc Scenario, n int, store string, opts core.NodeOptions) (*world, error) {
	if sc.HopDeadline <= 0 {
		sc.HopDeadline = 500 * time.Millisecond
	}
	if sc.MaxRecoveries <= 0 {
		sc.MaxRecoveries = 5
	}
	if !sc.Retry.Enabled() {
		sc.Retry = firewall.RetryPolicy{Attempts: 8, Backoff: 200 * time.Microsecond}
	}
	if sc.WaitTimeout <= 0 {
		sc.WaitTimeout = 20 * time.Second
	}
	s, err := core.NewSystem(simnet.LAN100)
	if err != nil {
		return nil, err
	}
	w := &world{
		sc: sc, n: n, store: store, s: s,
		attempts: make(map[visit]int),
		effects:  make(map[visit]int),
		skipped:  make(map[string][]string),
	}
	if sc.Observability {
		w.twr = s.EnableTower()
	}
	opts.NoCVM, opts.DedupWindow = true, 256
	for _, h := range append([]string{home}, Stops...) {
		if _, err := s.AddNode(h, opts); err != nil {
			_ = s.Close()
			return nil, err
		}
	}
	if w.home, err = s.Node(home); err != nil {
		_ = s.Close()
		return nil, err
	}

	w.plan = faults.New(faults.Config{
		Seed:      sc.Seed,
		Drop:      sc.Drop,
		Duplicate: sc.Duplicate,
		Delay:     sc.Delay,
		MaxDelay:  sc.MaxDelay,
		Corrupt:   sc.Corrupt,
	})
	if w.twr != nil {
		// Scheduled topology faults journal as they apply. Crash/restart are
		// skipped: the core crash/restart hooks already journal those, and a
		// double entry would shift the rendered timeline.
		w.plan.SetApplyObserver(func(ev faults.Event) {
			if ev.Op == faults.OpCrash || ev.Op == faults.OpRestart {
				return
			}
			detail := ""
			if ev.B != "" {
				detail = "peer=" + ev.B
			}
			w.twr.Record(tower.Entry{
				Time:   ev.At,
				Host:   ev.A,
				Kind:   tower.KindFault,
				Name:   ev.Op,
				Detail: detail,
			})
		})
	}
	w.plan.Schedule(sc.Events...)
	w.plan.Bind(s.Net)

	for i := 0; i < n; i++ {
		_, path, _ := w.names(i)
		s.DeployWrapper("checkpoint:"+path, func() wrapper.Wrapper {
			return &wrapper.Checkpoint{
				StoreURI: "tacoma://" + home + "//" + store,
				Path:     path,
				Retry:    sc.Retry,
			}
		})
	}
	s.DeployWrapper(rearguard.WrapperName, func() wrapper.Wrapper {
		return &rearguard.Beacon{}
	})

	s.DeployProgram(program, func(ctx *agent.Context) error {
		id, _ := ctx.Briefcase().GetString(FolderAgent)
		err := agent.RunItinerary(ctx, func(ctx *agent.Context) error {
			h := ctx.Host()
			if h == home {
				return nil // launch/recovery site, not an itinerary stop
			}
			v := visit{id, h}
			w.mu.Lock()
			w.attempts[v]++
			first := w.attempts[v] == 1
			if first {
				w.effects[v]++
			}
			w.mu.Unlock()
			if first && h == sc.CrashOnArrival {
				s.Net.Crash(h)
				if sc.RestartDelay > 0 {
					time.AfterFunc(sc.RestartDelay, func() { s.Net.Restart(h) })
				}
			}
			return nil
		})
		if err == nil {
			w.mu.Lock()
			w.skipped[id] = append(w.skipped[id], agent.Skipped(ctx)...)
			w.mu.Unlock()
		}
		return err
	})
	return w, nil
}

// names gives agent i's id, checkpoint path and guard agent name. A
// lone agent is unnamed: no AGENT folder, the checkpoint at ckptPath and
// the guard's default agent name.
func (w *world) names(i int) (id, ckpt, guardName string) {
	if w.n == 1 {
		return "", ckptPath, ""
	}
	return fmt.Sprintf("agent-%d", i), fmt.Sprintf("%s-%d", ckptPath, i), fmt.Sprintf("tour-%d", i)
}

// guard registers a fresh rear guard for agent i at home. A second guard
// for the same agent adopts its itinerary from the checkpoint.
func (w *world) guard(i int) (*rearguard.Guard, error) {
	_, ckpt, name := w.names(i)
	return rearguard.NewGuard(rearguard.Config{
		FW: w.home.FW,
		Launch: func(p, n, prog string, bc *briefcase.Briefcase) (*firewall.Registration, error) {
			return w.home.VM.Launch(p, n, prog, bc)
		},
		Program:         program,
		AgentName:       name,
		Checkpoint:      ckpt,
		Store:           w.store,
		HopDeadline:     w.sc.HopDeadline,
		MaxRecoveries:   w.sc.MaxRecoveries,
		ReinsertLastHop: true,
	})
}

// briefcase is agent i's itinerary: its wrapper stack (checkpoint
// outside the beacon), the 3-hop tour and the retry policy.
func (w *world) briefcase(i int) *briefcase.Briefcase {
	id, ckpt, _ := w.names(i)
	bc := briefcase.New()
	if id != "" {
		bc.SetString(FolderAgent, id)
	}
	bc.Ensure(briefcase.FolderSysWrap).AppendString("checkpoint:"+ckpt, rearguard.WrapperName)
	stops := bc.Ensure(briefcase.FolderHosts)
	for _, stop := range Stops {
		stops.AppendString(stopURI(stop))
	}
	firewall.SetRetryPolicy(bc, w.sc.Retry)
	return bc
}

// result is agent i's outcome: err, g's recoveries and the agent's
// share of the effect ledger.
func (w *world) result(i int, g *rearguard.Guard, err error) Result {
	id, _, _ := w.names(i)
	res := Result{
		Err:        err,
		Recoveries: g.Recoveries(),
		Attempts:   make(map[string]int),
		Effects:    make(map[string]int),
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for v, c := range w.attempts {
		if v.agent == id {
			res.Attempts[v.host] = c
		}
	}
	for v, c := range w.effects {
		if v.agent == id {
			res.Effects[v.host] = c
		}
	}
	res.Skipped = append([]string(nil), w.skipped[id]...)
	sort.Strings(res.Skipped)
	return res
}
