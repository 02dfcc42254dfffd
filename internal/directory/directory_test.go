package directory

import (
	"errors"
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"tax/internal/vclock"

	"tax/internal/cabinet"
)

func TestRingOwnershipDeterministic(t *testing.T) {
	a := MustRing([]string{"d3", "d1", "d2"}, 0, 2)
	b := MustRing([]string{"d1", "d2", "d3"}, 0, 2)
	for _, name := range []string{"alice", "bob", "carol", "agent-17", ""} {
		if got, want := a.Owner(name), b.Owner(name); got != want {
			t.Fatalf("owner(%q) differs across membership orderings: %q vs %q", name, got, want)
		}
		oa, ob := a.Owners(name), b.Owners(name)
		if len(oa) != 2 || len(ob) != 2 {
			t.Fatalf("owners(%q) = %v / %v, want 2 distinct nodes each", name, oa, ob)
		}
		if oa[0] == oa[1] {
			t.Fatalf("owners(%q) not distinct: %v", name, oa)
		}
		if oa[0] != ob[0] || oa[1] != ob[1] {
			t.Fatalf("owners(%q) differ: %v vs %v", name, oa, ob)
		}
		if !a.Holds(oa[0], name) || !a.Holds(oa[1], name) || a.Holds("nope", name) {
			t.Fatalf("Holds inconsistent for %q: %v", name, oa)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := MustRing([]string{"d1", "d2", "d3", "d4"}, 0, 1)
	counts := map[string]int{}
	for i := 0; i < 10_000; i++ {
		counts[r.Owner("agent-"+string(rune('a'+i%26))+"-"+time.Duration(i).String())]++
	}
	for _, n := range r.Nodes() {
		share := float64(counts[n]) / 10_000
		if share < 0.10 || share > 0.45 {
			t.Fatalf("node %s owns %.1f%% of the keyspace — ring badly unbalanced (%v)", n, share*100, counts)
		}
	}
}

func TestRingReplicasClamped(t *testing.T) {
	r := MustRing([]string{"only"}, 8, 3)
	if got := r.Owners("x"); len(got) != 1 || got[0] != "only" {
		t.Fatalf("single-node ring owners = %v", got)
	}
	if _, err := NewRing(nil, 0, 1); err == nil {
		t.Fatal("empty ring accepted")
	}
}

func TestBindingCodecRoundtrip(t *testing.T) {
	rows := []Binding{
		{Name: "alice", Location: "tacoma://h1/alice/webbot:2a", Version: 7, Updated: 5 * time.Second, Expires: 35 * time.Second},
		{Name: "bob", Version: 3, Updated: time.Second, Dropped: true},
	}
	dec, err := DecodeRows(EncodeRows(rows))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec) != 2 || dec[0] != rows[0] || dec[1] != rows[1] {
		t.Fatalf("roundtrip mismatch: %+v", dec)
	}
	if _, err := DecodeBinding("garbage"); err == nil {
		t.Fatal("malformed record accepted")
	}
	if got, err := DecodeRows(""); err != nil || got != nil {
		t.Fatalf("empty batch = %v, %v", got, err)
	}
}

func TestShardVersionedMerge(t *testing.T) {
	s := NewShard(nil, 0)
	b1, err := s.Coordinate("alice", "loc-1", false, time.Second)
	if err != nil || b1.Version != 1 {
		t.Fatalf("coordinate: %+v, %v", b1, err)
	}
	b2, _ := s.Coordinate("alice", "loc-2", false, 2*time.Second)
	if b2.Version != 2 {
		t.Fatalf("second write version = %d", b2.Version)
	}
	// A stale record (duplicated/reordered frame) must not regress.
	if ok, _ := s.Apply(b1); ok {
		t.Fatal("stale apply accepted")
	}
	// A duplicate of the newest record is a no-op, not an error.
	if ok, _ := s.Apply(b2); ok {
		t.Fatal("duplicate apply accepted")
	}
	got, err := s.LookupAt("alice", 2*time.Second)
	if err != nil || got.Location != "loc-2" {
		t.Fatalf("lookup = %+v, %v", got, err)
	}
	// Drop tombstones; an older update must not resurrect it.
	drop, _ := s.Coordinate("alice", "", true, 3*time.Second)
	if !drop.Dropped || drop.Version != 3 {
		t.Fatalf("drop = %+v", drop)
	}
	if ok, _ := s.Apply(b2); ok {
		t.Fatal("tombstoned binding resurrected by older record")
	}
	if _, err := s.LookupAt("alice", 3*time.Second); !errors.Is(err, ErrUnbound) {
		t.Fatalf("dropped lookup err = %v, want ErrUnbound", err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len after drop = %d", s.Len())
	}
}

func TestShardLeases(t *testing.T) {
	s := NewShard(nil, 10*time.Second)
	if _, err := s.Coordinate("alice", "loc-1", false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LookupAt("alice", 9*time.Second); err != nil {
		t.Fatalf("live lease rejected: %v", err)
	}
	if _, err := s.LookupAt("alice", 10*time.Second); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired lease err = %v, want ErrExpired", err)
	}
	// A renewal re-binds past the expiry.
	if _, err := s.Coordinate("alice", "loc-1", false, 12*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LookupAt("alice", 15*time.Second); err != nil {
		t.Fatalf("renewed lease rejected: %v", err)
	}
	// Sweep tombstones only names passing the owner filter.
	_, _ = s.Coordinate("bob", "loc-b", false, 12*time.Second)
	swept, err := s.SweepExpired(time.Hour, func(name string) bool { return name == "alice" })
	if err != nil || len(swept) != 1 || swept[0].Name != "alice" || !swept[0].Dropped {
		t.Fatalf("sweep = %+v, %v", swept, err)
	}
	// A swept name keeps answering with the typed expiry — the caller
	// learns the agent went silent, not that the name never existed.
	if _, err := s.LookupAt("alice", time.Hour); !errors.Is(err, ErrExpired) {
		t.Fatalf("post-sweep lookup = %v, want ErrExpired", err)
	}
	if _, ok := s.Get("bob"); !ok {
		t.Fatal("unowned name swept")
	}
}

func TestShardRecoverFromCabinet(t *testing.T) {
	clock := vclock.NewVirtual()
	store := cabinet.NewStore(cabinet.Options{Clock: clock, SnapshotEvery: -1})
	s := NewShard(store, 0)
	if _, err := s.Coordinate("alice", "loc-1", false, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Coordinate("alice", "loc-2", false, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Coordinate("bob", "", true, 3*time.Second); err != nil {
		t.Fatal(err)
	}

	// Crash: the page cache is lost, the journal survives, a fresh shard
	// recovers every acknowledged record — including the tombstone.
	store.Disk().Crash()
	if _, err := store.Reopen(); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	s2 := NewShard(store, 0)
	if err := s2.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	got, err := s2.LookupAt("alice", 0)
	if err != nil || got.Location != "loc-2" || got.Version != 2 {
		t.Fatalf("recovered binding = %+v, %v", got, err)
	}
	if b, ok := s2.Get("bob"); !ok || !b.Dropped {
		t.Fatalf("recovered tombstone = %+v, %v", b, ok)
	}
}

// TestShardAllocs pins the shard-local primitives at zero allocations
// with 100,000 names bound: a renewing Coordinate and a LookupAt of a
// bound name allocate nothing.
func TestShardAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("exact allocation counts do not hold under the race detector")
	}
	const bound = 100_000
	sh := NewShard(nil, time.Minute)
	names := make([]string, bound)
	for i := range names {
		names[i] = fmt.Sprintf("agent-%06d", i)
		if _, err := sh.Coordinate(names[i], "tacoma://h1//vm_go", false, 0); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		if _, err := sh.Coordinate(names[i%bound], "tacoma://h2//vm_go", false, time.Second); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("Coordinate allocates %v per run, want 0", n)
	}
	i = 0
	if n := testing.AllocsPerRun(200, func() {
		if _, err := sh.LookupAt(names[i%bound], time.Second); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("LookupAt allocates %v per run, want 0", n)
	}
}
