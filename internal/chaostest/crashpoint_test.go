package chaostest

import (
	"testing"

	"tax/internal/briefcase"
	"tax/internal/cabinet"
)

// assertCrashPoints applies the crash-consistency contract to a sweep:
// every crashed run must end with the itinerary completed (on either
// guard, or durably before the crash) and exactly-once effects; a
// durable checkpoint must always decode; recovery must never replay
// past the crash point.
func assertCrashPoints(t *testing.T, points []CrashPoint) {
	t.Helper()
	if len(points) < 2 {
		t.Fatalf("sweep exercised only %d crash points", len(points))
	}
	crashes := 0
	for _, p := range points {
		if !p.Crashed {
			continue
		}
		crashes++
		if !p.Completed() {
			t.Errorf("k=%d: itinerary did not complete: %v", p.K, p.Result.Err)
		}
		if stop, ok := p.Result.ExactlyOnce(); !ok {
			t.Errorf("k=%d: effects not exactly-once at %s: %v", p.K, stop, p.Result.Effects)
		}
		if p.CheckpointDurable && !p.CheckpointIntact {
			t.Errorf("k=%d: durable checkpoint did not decode (torn record surfaced)", p.K)
		}
		if p.RecoveredSeq > p.SeqAtCrash {
			t.Errorf("k=%d: recovery replayed past the crash (seq %d > %d)",
				p.K, p.RecoveredSeq, p.SeqAtCrash)
		}
	}
	if crashes == 0 {
		t.Fatal("sweep never crashed: the crash hook is not firing")
	}
	if last := points[len(points)-1]; last.Crashed {
		t.Logf("sweep stopped at MaxPoints with k=%d still crashing", last.K)
	}
}

// TestCrashPointSweep kills the home host at every WAL append of a
// guarded 3-hop itinerary and asserts the recovery contract at each
// boundary. Seed 11 is fixed; the sweep is deterministic per seed.
func TestCrashPointSweep(t *testing.T) {
	points, err := RunCrashPoints(CrashPointScenario{Scenario: Scenario{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	assertCrashPoints(t, points)
}

// TestCrashPointSweepTorn repeats the sweep with torn in-flight writes:
// at each crash half the WAL's unsynced tail survives, so recovery must
// cut the log at the last whole record and never surface a partial
// checkpoint. Seed 13 is fixed.
func TestCrashPointSweepTorn(t *testing.T) {
	points, err := RunCrashPoints(CrashPointScenario{Scenario: Scenario{Seed: 13}, Torn: true})
	if err != nil {
		t.Fatal(err)
	}
	assertCrashPoints(t, points)
}

// TestCrashPointSweepUnderFaults layers a PR 2 fault plan (duplicated
// and delayed frames) over the crash sweep: the guarded itinerary must
// still complete exactly-once at every boundary. Seed 17 is fixed.
func TestCrashPointSweepUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep under faults is the long variant")
	}
	points, err := RunCrashPoints(CrashPointScenario{Scenario: Scenario{
		Seed:      17,
		Duplicate: 0.05,
		Delay:     0.05,
	}})
	if err != nil {
		t.Fatal(err)
	}
	assertCrashPoints(t, points)
}

// TestCrashPointEveryBytePrefix is the exhaustive mid-record proof on
// real end-to-end bytes: one clean guarded run writes the home cabinet's
// WAL (checkpoint puts, the final prune, park and dedup journal
// records), then pure recovery is evaluated at every byte-length prefix
// of that log — every record boundary and every torn cut inside every
// record. Recovery must be total, monotone in sequence, deterministic,
// and must never surface a checkpoint that does not decode.
func TestCrashPointEveryBytePrefix(t *testing.T) {
	p, err := runCrashPoint(CrashPointScenario{Scenario: Scenario{Seed: 19}}, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if p.Crashed {
		t.Fatal("harvest run crashed: k was supposed to be unreachable")
	}
	if p.Result.Err != nil {
		t.Fatalf("harvest run failed: %v", p.Result.Err)
	}
	if len(p.WALBytes) == 0 {
		t.Fatal("harvest run wrote no WAL")
	}
	var prevSeq uint64
	sawCheckpoint := false
	for cut := 0; cut <= len(p.WALBytes); cut++ {
		table, seq, err := cabinet.RecoverBytes(p.SnapBytes, p.WALBytes[:cut])
		if err != nil {
			t.Fatalf("cut %d: recovery not total: %v", cut, err)
		}
		if seq < prevSeq {
			t.Fatalf("cut %d: recovered seq regressed %d -> %d", cut, prevSeq, seq)
		}
		prevSeq = seq
		if raw, ok := table[ckptKey]; ok {
			sawCheckpoint = true
			if _, err := briefcase.Decode(raw); err != nil {
				t.Fatalf("cut %d: recovered checkpoint does not decode: %v", cut, err)
			}
		}
		again, seq2, err2 := cabinet.RecoverBytes(p.SnapBytes, p.WALBytes[:cut])
		if err2 != nil || seq2 != seq || len(again) != len(table) {
			t.Fatalf("cut %d: recovery not deterministic", cut)
		}
	}
	if !sawCheckpoint {
		t.Fatal("no prefix ever held the checkpoint: the run did not exercise it")
	}
}
