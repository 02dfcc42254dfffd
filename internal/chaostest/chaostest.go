// Package chaostest is the chaos/property harness of the fault-injection
// layer: it boots a simulated 4-host deployment (home + 3 stops), binds a
// deterministic faults.Plan to the network, and drives a rear-guarded,
// checkpointed 3-hop itinerary whose visit effects are idempotent.
//
// The harness is the executable statement of the §4 recovery contract:
// execution is at-least-once (a "dead" hop may have been merely
// partitioned, and recovery replays from the last snapshot), so visit
// effects are deduplicated by stop — and the tests assert the resulting
// end-to-end guarantee: under injected faults every run either completes
// with exactly-once effects on every non-skipped stop, or ends in a
// typed failure. No hangs, no silent loss.
//
// Run, RunParallel and the crash-point sweep drive one tour world
// (world.go); the group-commit sweep and the directory storm build
// their own.
package chaostest

import (
	"time"

	"tax/internal/agent"
	"tax/internal/core"
)

// Stops is the fixed 3-hop itinerary every scenario drives.
var Stops = []string{"h1", "h2", "h3"}

const (
	home     = "home"
	program  = "chaos-tour"
	ckptPath = "/ckpt/chaos"
)

// Scenario is one chaos run: a seed, message-level fault probabilities
// and an optional stop crash.
type Scenario struct {
	// Seed drives the fault plan; same scenario, same seed, same faults.
	Seed int64
	// Drop, Duplicate, Delay are per-transfer probabilities (see
	// faults.Config).
	Drop, Duplicate, Delay float64
	// CrashOnArrival names a stop whose first visit crashes its host
	// (transport-level) mid-visit — the rear-guard's canonical prey.
	CrashOnArrival string
	// RestartDelay, when positive, restarts the crashed host after this
	// much wall-clock time, letting the reinserted stop be reached on
	// recovery instead of skipped. In the crash-point sweep it is how
	// long the home host stays down.
	RestartDelay time.Duration
	// HopDeadline is the guard's silence threshold (default 500ms).
	HopDeadline time.Duration
	// WaitTimeout bounds the whole run (default 20s); expiry surfaces
	// as rearguard.ErrWaitTimeout in Result.Err, never as a test hang.
	WaitTimeout time.Duration
	// Observability enables the tower: per-host telemetry feeding a
	// system-wide collector, the fault plan journaling into its flight
	// recorder, and Result carrying the run's rendered merged timeline.
	Observability bool
}

// Result is the observable outcome of one run.
type Result struct {
	// Err is the terminal outcome: nil on completion, else a typed
	// rearguard error (or the guard's transport error).
	Err error
	// Recoveries counts rear-guard relaunches.
	Recoveries int
	// Attempts counts visit executions per stop (≥ Effects: recovery
	// replays re-execute).
	Attempts map[string]int
	// Effects counts applied (deduplicated) visit effects per stop; the
	// exactly-once contract is Effects[stop] ∈ {0, 1} with 0 only for
	// skipped stops.
	Effects map[string]int
	// Skipped lists itinerary stops recorded unreachable.
	Skipped []string
	// FaultLog is the plan's canonical JSON log (see faults.LogJSON).
	FaultLog []byte
	// TraceID is the itinerary's trace id (Observability scenarios only).
	TraceID string
	// Timeline is the tower's rendered merged timeline for TraceID
	// (Observability scenarios only). Ids are masked in rendering, so the
	// same seed yields byte-identical lines across runs.
	Timeline []string
}

// Completed reports whether the itinerary reached its done report.
func (r Result) Completed() bool { return r.Err == nil }

// ExactlyOnce verifies the effect contract: every stop either carries
// exactly one applied effect or was recorded skipped (never both absent,
// never a double application). It returns the first violating stop.
func (r Result) ExactlyOnce() (string, bool) {
	skipped := make(map[string]bool)
	for _, s := range r.Skipped {
		for _, stop := range Stops {
			if s == stopURI(stop) || s == stop {
				skipped[stop] = true
			}
		}
	}
	for _, stop := range Stops {
		switch r.Effects[stop] {
		case 1:
		case 0:
			if !skipped[stop] {
				return stop, false
			}
		default:
			return stop, false
		}
	}
	return "", true
}

func stopURI(host string) string { return "tacoma://" + host + "//vm_go" }

// Run executes one scenario to its terminal outcome: one guarded tour,
// its canonical fault log and, with Observability, its timeline.
func Run(sc Scenario) (Result, error) {
	w, err := newWorld(sc, 1, "ag_fs", core.NodeOptions{})
	if err != nil {
		return Result{}, err
	}
	defer w.s.Close()
	guard, err := w.guard(0)
	if err != nil {
		return Result{}, err
	}
	defer guard.Close()

	bc := w.briefcase(0)
	var traceID string
	if w.twr != nil {
		// Root the whole itinerary in one trace so the tower's merged
		// timeline reads every hop, mediation and recovery as one story.
		traceID = agent.StampTrace(bc, home)
	}
	if _, err := guard.Launch(bc); err != nil {
		return Result{}, err
	}
	waitErr := guard.Wait(w.sc.WaitTimeout)

	// Wait returns on the guard's done report, but trailing traffic can
	// still be in flight (the checkpoint wrapper prunes its snapshot at
	// the store after completion, and its RPC reply travels back).
	// Settle until the fault log stops growing before snapshotting it,
	// so the same seed yields the same — complete — canonical log.
	settle := func() int {
		n := len(w.plan.Log())
		if w.twr != nil {
			// The timeline must also be complete: spans and journal entries
			// arrive via push feeds that can trail the guard's done report.
			spans, journal := w.twr.Counts()
			n += spans + int(journal)
		}
		return n
	}
	for last, stable := settle(), 0; stable < 3; {
		time.Sleep(10 * time.Millisecond)
		if n := settle(); n != last {
			last, stable = n, 0
		} else {
			stable++
		}
	}

	res := w.result(0, guard, waitErr)
	if res.FaultLog, err = w.plan.LogJSON(); err != nil {
		return Result{}, err
	}
	if w.twr != nil {
		res.TraceID = traceID
		res.Timeline = w.twr.Trace(traceID).ExplainLines()
	}
	return res, nil
}
