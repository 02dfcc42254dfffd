// directory.go is the directory-plane experiment (EXPERIMENTS E9): the
// cost of the leased, sharded name service at mobile-web-robot scale.
// One hundred thousand agents register, renew and resolve against shard
// counts {1, 4, 16}; every number recorded to BENCH_directory.json is
// exact — shard ops really execute (exact versions, exact balance),
// allocation counts come from testing.AllocsPerRun with the GC off, and
// the virtual-clock makespan is simnet LAN100 arithmetic over exact
// frame counts — so reruns are byte-identical.
package bench

import (
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"tax/internal/directory"
	"tax/internal/simnet"
)

// directoryBenchAgents is the registered-agent population per sweep
// point — the roadmap's 10^5-agent scale target.
const directoryBenchAgents = 100_000

// directoryFrameBytes is the modeled wire size of one directory frame
// (request or reply): envelope headers plus a name, a location URI and
// the lease fields, matching what the plane's briefcases carry.
const directoryFrameBytes = 256

// DirectoryShardResult is one shard-count sweep point.
type DirectoryShardResult struct {
	// Shards is the directory plane's member count; Replicas how many
	// copies each binding has (1 on the single-node plane, 2 beyond).
	Shards   int `json:"shards"`
	Replicas int `json:"replicas"`
	// Agents is the registered population; every agent registers once,
	// renews once (one move) and is looked up once.
	Agents int `json:"agents"`
	// MaxShardLoad / MinShardLoad are the exact largest and smallest
	// per-shard owned-name counts the consistent-hash ring produced.
	MaxShardLoad int `json:"max_shard_load"`
	MinShardLoad int `json:"min_shard_load"`
	// RegisterAllocsPerOp / LookupAllocsPerOp are exact steady-state
	// allocation counts of one shard-local Coordinate / LookupAt.
	RegisterAllocsPerOp float64 `json:"register_allocs_per_op"`
	LookupAllocsPerOp   float64 `json:"lookup_allocs_per_op"`
	// RegisterMakespanMS is the virtual-clock makespan of registering
	// the whole population: shards serve their owned names in parallel,
	// so the makespan is the busiest shard's serial cost — client RPC
	// plus one replica forward per write under LAN100.
	RegisterMakespanMS float64 `json:"register_makespan_ms"`
	// RegsPerVirtualSec is the plane's registration throughput:
	// population over makespan.
	RegsPerVirtualSec float64 `json:"regs_per_virtual_sec"`
	// LookupDirectUS is one resolution against a live owner (one LAN100
	// round trip); LookupFailoverUS adds the dead-owner timeout-free
	// retry against the replica (a second round trip).
	LookupDirectUS   float64 `json:"lookup_direct_us"`
	LookupFailoverUS float64 `json:"lookup_failover_us"`
}

// DirectoryResult is the BENCH_directory.json document.
type DirectoryResult struct {
	Profile string                 `json:"profile"`
	Results []DirectoryShardResult `json:"results"`
}

// Directory runs the shard-count sweep and returns the table plus the
// JSON document.
func Directory() (*Table, any, error) {
	res := &DirectoryResult{Profile: simnet.LAN100.Name}
	for _, shards := range []int{1, 4, 16} {
		point, err := directorySweepPoint(shards)
		if err != nil {
			return nil, nil, err
		}
		res.Results = append(res.Results, point)
	}

	tbl := &Table{
		Title: fmt.Sprintf("directory plane: %d agents register+renew+resolve, LAN100", directoryBenchAgents),
		Header: []string{"shards", "replicas", "max/min load", "reg allocs", "lookup allocs",
			"reg makespan", "regs/vsec", "lookup", "failover"},
	}
	for _, p := range res.Results {
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(p.Shards),
			fmt.Sprint(p.Replicas),
			fmt.Sprintf("%d/%d", p.MaxShardLoad, p.MinShardLoad),
			fmt.Sprintf("%.0f", p.RegisterAllocsPerOp),
			fmt.Sprintf("%.0f", p.LookupAllocsPerOp),
			fmt.Sprintf("%.1fms", p.RegisterMakespanMS),
			fmt.Sprintf("%.0f", p.RegsPerVirtualSec),
			fmt.Sprintf("%.0fµs", p.LookupDirectUS),
			fmt.Sprintf("%.0fµs", p.LookupFailoverUS),
		})
	}
	return tbl, res, nil
}

// directorySweepPoint measures one shard count against the full agent
// population.
func directorySweepPoint(shards int) (DirectoryShardResult, error) {
	nodes := make([]string, shards)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("d%02d", i)
	}
	replicas := 2
	if shards < 2 {
		replicas = 1
	}
	ring, err := directory.NewRing(nodes, 0, replicas)
	if err != nil {
		return DirectoryShardResult{}, err
	}

	// Execute the whole population's registrations and one renewal each
	// against real in-memory shards (the owner's data structure, minus
	// the journal disk): exact versions, exact per-shard load.
	byNode := make(map[string]*directory.Shard, shards)
	for _, n := range nodes {
		byNode[n] = directory.NewShard(nil, time.Minute)
	}
	load := make(map[string]int, shards)
	names := make([]string, directoryBenchAgents)
	owners := make([]string, directoryBenchAgents)
	for i := range names {
		names[i] = fmt.Sprintf("agent-%06d", i)
		owners[i] = ring.Owner(names[i])
		load[owners[i]]++
	}
	for i, name := range names {
		sh := byNode[owners[i]]
		if _, err := sh.Coordinate(name, "tacoma://h1//vm_go", false, 0); err != nil {
			return DirectoryShardResult{}, err
		}
		if b, err := sh.Coordinate(name, "tacoma://h2//vm_go", false, time.Second); err != nil || b.Version != 2 {
			return DirectoryShardResult{}, fmt.Errorf("bench: renewal of %s = %+v, %v", name, b, err)
		}
	}
	for i, name := range names {
		if b, err := byNode[owners[i]].LookupAt(name, time.Second); err != nil || b.Version != 2 {
			return DirectoryShardResult{}, fmt.Errorf("bench: lookup of %s = %+v, %v", name, b, err)
		}
	}
	maxLoad, minLoad := 0, directoryBenchAgents
	for _, n := range nodes {
		if load[n] > maxLoad {
			maxLoad = load[n]
		}
		if load[n] < minLoad {
			minLoad = load[n]
		}
	}

	// Exact allocation counts for the shard-local primitives, steady
	// state (every name already bound), GC parked.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	probe := byNode[owners[0]]
	idx := 0
	regAllocs := testing.AllocsPerRun(200, func() {
		name := names[idx%directoryBenchAgents]
		if owners[idx%directoryBenchAgents] == owners[0] {
			if _, err := probe.Coordinate(name, "tacoma://h2//vm_go", false, time.Second); err != nil {
				panic(err)
			}
		}
		idx++
	})
	idx = 0
	lookAllocs := testing.AllocsPerRun(200, func() {
		name := names[idx%directoryBenchAgents]
		if owners[idx%directoryBenchAgents] == owners[0] {
			if _, err := probe.LookupAt(name, time.Second); err != nil {
				panic(err)
			}
		}
		idx++
	})

	// Virtual-clock model, LAN100 arithmetic over exact frame counts.
	// One registration = client→owner request + owner→client ack (one
	// round trip) plus, with replication, an owner→replica apply and its
	// ack overlapping the next write (pipelined by the replication
	// workers), which bounds the owner's serial cost at one round trip
	// per write either way; the replica stream doubles the frames the
	// busiest shard must emit.
	rtt := simnet.LAN100.RoundTrip(directoryFrameBytes, directoryFrameBytes)
	perWrite := rtt
	if replicas > 1 {
		perWrite += simnet.LAN100.TransferTime(directoryFrameBytes) // replica apply frame on the owner's link
	}
	makespan := time.Duration(maxLoad) * perWrite
	p := DirectoryShardResult{
		Shards:              shards,
		Replicas:            replicas,
		Agents:              directoryBenchAgents,
		MaxShardLoad:        maxLoad,
		MinShardLoad:        minLoad,
		RegisterAllocsPerOp: regAllocs,
		LookupAllocsPerOp:   lookAllocs,
		RegisterMakespanMS:  float64(makespan.Microseconds()) / 1000,
		RegsPerVirtualSec:   float64(directoryBenchAgents) / makespan.Seconds(),
		LookupDirectUS:      float64(rtt.Microseconds()),
		LookupFailoverUS:    float64((2 * rtt).Microseconds()),
	}
	return p, nil
}
