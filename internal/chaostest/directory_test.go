package chaostest

import (
	"encoding/json"
	"testing"
	"time"
)

// TestDirectoryChaosSweep is the PR's headline proof: a seeded
// register/move/lookup storm against the sharded directory plane while
// owners crash mid-write and replicas partition away, audited for the
// two safety invariants (no acked registration lost, no name at two
// live locations) plus typed lease expiry. Three seeds, covering the
// owner-crash-during-write and partitioned-replica cases the issue
// names explicitly.
func TestDirectoryChaosSweep(t *testing.T) {
	cases := []struct {
		label string
		sc    DirectoryScenario
	}{
		{"owner-crash-during-write", DirectoryScenario{
			Seed:       1,
			CrashOwner: true,
			Drop:       0.02,
			Delay:      0.10,
			MaxDelay:   2 * time.Millisecond,
		}},
		{"partitioned-replica", DirectoryScenario{
			Seed:             2,
			PartitionReplica: true,
			Duplicate:        0.05,
			Delay:            0.10,
			MaxDelay:         2 * time.Millisecond,
		}},
		{"crash-and-partition", DirectoryScenario{
			Seed:             3,
			CrashOwner:       true,
			PartitionReplica: true,
			Drop:             0.02,
			Duplicate:        0.02,
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.label, func(t *testing.T) {
			res, err := RunDirectory(tc.sc)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			inv, err := res.invariants(tc.sc.Seed)
			if err != nil {
				t.Fatalf("invariants json: %v", err)
			}
			t.Logf("seed %d: acked=%d failed=%d lookups=%d(%d failed) invariants=%s",
				tc.sc.Seed, res.Acked, res.Failed, res.Lookups, res.FailedLookups, inv)
			if len(res.LostAcked) > 0 {
				t.Errorf("acked registrations lost: %v", res.LostAcked)
			}
			if len(res.Divergent) > 0 {
				t.Errorf("names observed at two locations: %v", res.Divergent)
			}
			if res.UntypedErrors > 0 {
				t.Errorf("%d remote errors crossed the wire untyped", res.UntypedErrors)
			}
			if !res.ExpiredTyped {
				t.Error("expired leases did not all surface as typed ns_expired")
			}
			if res.Acked == 0 {
				t.Error("storm acked nothing — the scenario proved a vacuous invariant")
			}
			// The JSON carries invariant outcomes only, so a second
			// marshal of the same run is byte-identical.
			inv2, _ := res.invariants(tc.sc.Seed)
			if string(inv) != string(inv2) {
				t.Errorf("invariant JSON not stable: %s vs %s", inv, inv2)
			}
			var decoded map[string]any
			if err := json.Unmarshal(inv, &decoded); err != nil {
				t.Fatalf("invariant JSON malformed: %v", err)
			}
			for _, k := range []string{"seed", "lost_acked", "divergent", "untyped_errors", "expired_typed", "acked_any_write"} {
				if _, ok := decoded[k]; !ok {
					t.Errorf("invariant JSON missing %q: %s", k, inv)
				}
			}
		})
	}
}

// TestDirectoryFaultPlanFrames is the satellite-4 case: a fault plan
// aggressively dropping and duplicating update/lookup frames (no
// crashes, no partitions). Duplicated registration frames must not
// double-bind a name to two locations, and dropped frames must not lose
// an acknowledged renewal — both reduce to the same two invariants the
// sweep audits, with the message-level faults as the only adversary.
func TestDirectoryFaultPlanFrames(t *testing.T) {
	res, err := RunDirectory(DirectoryScenario{
		Seed:      11,
		Names:     40,
		Moves:     4,
		Drop:      0.08,
		Duplicate: 0.15,
		Delay:     0.20,
		MaxDelay:  3 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	t.Logf("acked=%d failed=%d lookups=%d(%d failed)", res.Acked, res.Failed, res.Lookups, res.FailedLookups)
	if len(res.Divergent) > 0 {
		t.Errorf("duplicated frames double-bound names: %v", res.Divergent)
	}
	if len(res.LostAcked) > 0 {
		t.Errorf("dropped frames lost acknowledged renewals: %v", res.LostAcked)
	}
	if res.UntypedErrors > 0 {
		t.Errorf("%d untyped remote errors", res.UntypedErrors)
	}
	if res.Acked == 0 {
		t.Error("no write survived the fault plan — faults too aggressive to prove anything")
	}
	if len(res.FaultLog) == 0 {
		t.Error("fault plan recorded no injections")
	}
}
