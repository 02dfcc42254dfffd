package directory

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per directory node when a
// ring is built with vnodes <= 0. 64 points per node keeps the maximum
// shard imbalance under ~20% at any node count the plane targets while
// the ring stays small enough to binary-search in nanoseconds.
const DefaultVNodes = 64

// DefaultReplicas is the replication factor, owner included, of a plane
// whose configuration names none: every binding lives on its owner and
// one replica, so a single member's crash loses no acknowledged write.
const DefaultReplicas = 2

// Ring is a consistent-hash ring over the directory nodes: each node
// contributes VNodes points, a name hashes to a position, and the next
// Replicas distinct nodes clockwise own it (the first is the shard
// owner, the rest are replicas). The ring is immutable after NewRing
// and pure arithmetic — every participant derives identical ownership
// from the same membership list, with no coordination protocol.
type Ring struct {
	nodes    []string
	vnodes   int
	replicas int
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring from the node list. vnodes <= 0 uses
// DefaultVNodes; replicas is clamped to [1, len(nodes)]. The node list
// is copied and deduplicated order-independently (membership is a set).
func NewRing(nodes []string, vnodes, replicas int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("directory: ring needs at least one node")
	}
	set := make(map[string]bool, len(nodes))
	uniq := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("directory: empty node name in ring")
		}
		if !set[n] {
			set[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(uniq) {
		replicas = len(uniq)
	}
	r := &Ring{nodes: uniq, vnodes: vnodes, replicas: replicas}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for _, n := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(n + "#" + strconv.Itoa(v)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (astronomically rare) break by node name so the ring
		// stays a pure function of membership.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// mustRing is NewRing for static configuration; it panics on error.
func mustRing(nodes []string, vnodes, replicas int) *Ring {
	r, err := NewRing(nodes, vnodes, replicas)
	if err != nil {
		panic(err)
	}
	return r
}

// ringHash is the ring's position function (FNV-1a, stable across
// processes and releases — ownership must be a pure function of the
// membership list).
func ringHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// Nodes returns the ring membership, sorted.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Replicas returns the replication factor (owner included).
func (r *Ring) Replicas() int { return r.replicas }

// VNodes returns the virtual-node count per node.
func (r *Ring) VNodes() int { return r.vnodes }

// Owners returns the nodes holding a name, owner first, then the
// replicas clockwise. Always returns exactly Replicas() distinct nodes.
func (r *Ring) Owners(name string) []string {
	out := make([]string, 0, r.replicas)
	r.ownersAppend(name, &out)
	return out
}

// ownersAppend fills out with the owner set without allocating beyond
// the caller's slice (hot-path form for servers validating ownership).
func (r *Ring) ownersAppend(name string, out *[]string) {
	h := ringHash(name)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := 0
	for n := 0; n < len(r.points) && seen < r.replicas; n++ {
		p := r.points[(i+n)%len(r.points)]
		dup := false
		for _, got := range *out {
			if got == p.node {
				dup = true
				break
			}
		}
		if !dup {
			*out = append(*out, p.node)
			seen++
		}
	}
}

// Owner returns the shard owner of a name.
func (r *Ring) Owner(name string) string {
	h := ringHash(name)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Holds reports whether node is in the owner set of name.
func (r *Ring) Holds(node, name string) bool {
	for _, n := range r.Owners(name) {
		if n == node {
			return true
		}
	}
	return false
}

// Describe renders the ring for the management plane: one row per node
// with its virtual-node count and its share of a deterministic sample
// of the keyspace (10,000 probe names), plus a header row with the
// replication factor. Byte-identical for identical membership.
func (r *Ring) Describe() []string {
	const probes = 10_000
	counts := make(map[string]int, len(r.nodes))
	for i := 0; i < probes; i++ {
		counts[r.Owner("probe:"+strconv.Itoa(i))]++
	}
	rows := make([]string, 0, len(r.nodes)+1)
	rows = append(rows, fmt.Sprintf("ring|nodes=%d|vnodes=%d|replicas=%d", len(r.nodes), r.vnodes, r.replicas))
	for _, n := range r.nodes {
		rows = append(rows, fmt.Sprintf("node|%s|points=%d|share=%.1f%%", n, r.vnodes,
			float64(counts[n])*100/probes))
	}
	return rows
}
