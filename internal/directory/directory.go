// Package directory is the sharded, replicated, lease-based
// name→location plane behind the §4 "location independent naming"
// service.
//
// The paper keeps naming as infrastructure every agent platform absorbs.
// One name table on one host has two production failures baked in: it
// is a scalability bottleneck at fleet scale (10^6 registered agents
// funnel through one map and one host's link), and a crash of the node
// holding it silently strands every binding forever. This package is a
// directory plane instead; a single-node deployment is a one-member
// plane:
//
//   - Names are consistent-hashed across N directory nodes (virtual-node
//     ring, configurable replication factor R). Ring membership is static
//     per deployment; the ring is pure arithmetic, so every client and
//     server computes identical ownership with no coordination.
//
//   - Every binding is held under a lease on the virtual clock: an
//     update binds name→location for TTL, renewals (the
//     location-transparent wrapper re-binding on every hop) extend it,
//     and a binding whose lease expired resolves to a typed ErrExpired —
//     never to a dead location. A crashed agent's binding dies with its
//     lease instead of lingering forever.
//
//   - Writes are coordinated by the shard owner: it assigns the
//     binding's next version, journals it in the host's file cabinet
//     (crash-durable before anything is acknowledged), forwards it to
//     the R-1 replicas, and acknowledges the client only after every
//     replica has journaled its copy. A write that cannot reach its
//     replicas fails with the typed ErrNoQuorum — it is not
//     acknowledged, so the no-lost-acknowledgement invariant never
//     depends on an unreplicated record.
//
//   - Lookups go to the owner and fail over to replicas when the owner
//     is down or partitioned. Because acknowledged writes are on every
//     replica, a failed-over lookup still serves the latest acknowledged
//     version.
//
//   - Replicas converge by version: every record carries a per-name
//     version assigned only by the shard owner, Apply is a
//     version-ordered merge (idempotent, commutative, duplicate-frame
//     safe), drops are tombstones with versions of their own, and a
//     rejoining node anti-entropy-pulls from its peers and merges — so
//     recovery never resurrects a dropped binding and never regresses a
//     binding to an older location.
//
// The chaostest directory sweep crashes and partitions directory nodes
// at seeded points during a register/move/lookup storm and asserts the
// two plane-wide invariants: no acknowledged registration is ever lost,
// and no name ever resolves to two live locations at one version.
package directory

import (
	"errors"

	"tax/internal/firewall"
)

// Typed naming-plane errors. They cross the wire as RemoteError codes
// (ns_unbound, ns_expired, ns_no_quorum), so errors.Is holds across
// hosts — a lookup RPC that failed on a remote directory node still
// classifies on the caller's side.
var (
	// ErrUnbound is returned when a name has no binding (or only a drop
	// tombstone).
	ErrUnbound = errors.New("naming: name not bound")
	// ErrExpired is returned when a name's binding exists but its lease
	// ran out: the location on record may be dead and is not served.
	ErrExpired = errors.New("naming: binding lease expired")
	// ErrNoQuorum is returned when a write could not be acknowledged by
	// the full replica set; the write is not acknowledged and may or may
	// not survive (retry until acknowledged).
	ErrNoQuorum = errors.New("naming: no replication quorum")
	// ErrNotOwner is returned when a write reaches a directory node that
	// does not own the name's shard (a mis-routed client).
	ErrNotOwner = errors.New("naming: not the shard owner")
)

// Wire codes for the naming plane (PR 5 error taxonomy).
func init() {
	firewall.RegisterErrorCode("ns_unbound", ErrUnbound)
	firewall.RegisterErrorCode("ns_expired", ErrExpired)
	firewall.RegisterErrorCode("ns_no_quorum", ErrNoQuorum)
	firewall.RegisterErrorCode("ns_not_owner", ErrNotOwner)
}

// Directory service operations (services.FolderOp values). The first
// three are the client protocol; the rest are plane-internal.
const (
	// OpUpdate binds (or renews) name → location under a fresh lease.
	OpUpdate = "update"
	// OpLookup resolves a name to its current location.
	OpLookup = "lookup"
	// OpDrop removes a binding (a replicated tombstone).
	OpDrop = "drop"
	// OpApply is the replica write path: the shard owner forwards a
	// versioned record; the replica journals and acknowledges.
	OpApply = "apply"
	// OpPull is the anti-entropy path: a rejoining node asks a peer for
	// every record it should hold; the peer answers with encoded rows.
	OpPull = "pull"
)

// Briefcase folders of the directory protocol.
const (
	// FolderName is the stable agent name being bound or resolved.
	FolderName = "_NSNAME"
	// FolderLocation is the routable agent URI bound to the name.
	FolderLocation = "_NSLOC"
	// FolderVersion carries a binding's version (decimal).
	FolderVersion = "_NSVER"
	// FolderExpire carries a binding's lease expiry in virtual
	// nanoseconds (decimal).
	FolderExpire = "_NSEXP"
	// FolderDropped marks a record as a tombstone ("1").
	FolderDropped = "_NSDROP"
	// FolderRows carries encoded binding records (apply forwards and
	// pull replies).
	FolderRows = "_NSROWS"
	// FolderNode names the requesting node in a pull.
	FolderNode = "_NSNODE"
)
