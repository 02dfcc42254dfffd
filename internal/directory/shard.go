package directory

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tax/internal/cabinet"
)

// Binding is one versioned name→location record. Versions are assigned
// only by the name's shard owner, so for a fixed version there is
// exactly one (location, lease) in the whole plane; replicas merge
// records by version and the merge is idempotent and commutative.
type Binding struct {
	Name     string
	Location string
	// Version is the owner-assigned write counter for this name.
	Version uint64
	// Updated is the owner's virtual time of the write.
	Updated time.Duration
	// Expires is the lease deadline in virtual time; 0 means the binding
	// never expires (a shard built with ttl 0).
	Expires time.Duration
	// Dropped marks a tombstone: the name was dropped at this version
	// and must not be resurrected by older records.
	Dropped bool
	// Expired distinguishes a lease-expiry sweep tombstone from an
	// explicit drop: a swept name keeps resolving to the typed
	// ErrExpired (its agent went silent), an explicitly dropped one to
	// ErrUnbound.
	Expired bool
}

// Record encoding: fields joined by the unit separator, rows by the
// record separator. Agent names and URIs never contain control
// characters, so the framing is unambiguous without quoting.
const (
	fieldSep = "\x1f"
	rowSep   = "\x1e"
)

// Encode renders the binding as one wire/cabinet record.
func (b Binding) Encode() string {
	drop := "0"
	switch {
	case b.Dropped && b.Expired:
		drop = "2"
	case b.Dropped:
		drop = "1"
	}
	return b.Name + fieldSep + b.Location + fieldSep +
		strconv.FormatUint(b.Version, 10) + fieldSep +
		strconv.FormatInt(int64(b.Updated), 10) + fieldSep +
		strconv.FormatInt(int64(b.Expires), 10) + fieldSep + drop
}

// DecodeBinding parses one record produced by Encode.
func DecodeBinding(s string) (Binding, error) {
	parts := strings.Split(s, fieldSep)
	if len(parts) != 6 {
		return Binding{}, fmt.Errorf("directory: malformed record (%d fields)", len(parts))
	}
	ver, err := strconv.ParseUint(parts[2], 10, 64)
	if err != nil {
		return Binding{}, fmt.Errorf("directory: bad version: %w", err)
	}
	upd, err := strconv.ParseInt(parts[3], 10, 64)
	if err != nil {
		return Binding{}, fmt.Errorf("directory: bad update time: %w", err)
	}
	exp, err := strconv.ParseInt(parts[4], 10, 64)
	if err != nil {
		return Binding{}, fmt.Errorf("directory: bad expiry: %w", err)
	}
	return Binding{
		Name:     parts[0],
		Location: parts[1],
		Version:  ver,
		Updated:  time.Duration(upd),
		Expires:  time.Duration(exp),
		Dropped:  parts[5] != "0",
		Expired:  parts[5] == "2",
	}, nil
}

// EncodeRows renders a record batch (pull replies, apply forwards).
func EncodeRows(rows []Binding) string {
	enc := make([]string, len(rows))
	for i, b := range rows {
		enc[i] = b.Encode()
	}
	return strings.Join(enc, rowSep)
}

// DecodeRows parses a record batch.
func DecodeRows(s string) ([]Binding, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, rowSep)
	rows := make([]Binding, len(parts))
	for i, p := range parts {
		b, err := DecodeBinding(p)
		if err != nil {
			return nil, err
		}
		rows[i] = b
	}
	return rows, nil
}

// cabinetPrefix namespaces directory records in the host's file cabinet
// next to the firewall's park/dedup state.
const cabinetPrefix = "ns/"

// Shard holds the bindings a directory node is responsible for (as
// owner or replica). All time is explicit — callers pass the virtual
// now — so the shard itself is deterministic and directly testable.
// With a cabinet attached, every accepted record is journaled before
// the in-memory apply, so an acknowledged write survives a crash.
type Shard struct {
	mu  sync.RWMutex
	m   map[string]Binding
	st  *cabinet.Store
	ttl time.Duration
}

// NewShard builds a shard. store may be nil (volatile); ttl is the
// lease length granted on writes (0 = leases never expire).
func NewShard(store *cabinet.Store, ttl time.Duration) *Shard {
	return &Shard{m: make(map[string]Binding), st: store, ttl: ttl}
}

// TTL returns the lease length this shard grants on coordinated writes.
func (s *Shard) TTL() time.Duration { return s.ttl }

// Coordinate performs an owner-side write: it assigns the name's next
// version, stamps a fresh lease, journals the record, and applies it.
// The returned binding is what must be forwarded to the replicas.
func (s *Shard) Coordinate(name, location string, drop bool, now time.Duration) (Binding, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := Binding{
		Name:     name,
		Location: location,
		Version:  s.m[name].Version + 1,
		Updated:  now,
		Dropped:  drop,
	}
	if drop {
		b.Location = ""
	}
	if s.ttl > 0 && !drop {
		b.Expires = now + s.ttl
	}
	if err := s.journal(b); err != nil {
		return Binding{}, err
	}
	s.m[name] = b
	return b, nil
}

// Apply merges a record coordinated elsewhere (replica forward or
// anti-entropy row). Newer versions win; duplicates and stale records
// are no-ops, so Apply is safe under duplicated or reordered frames.
// It reports whether the record was accepted.
func (s *Shard) Apply(b Binding) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.m[b.Name]
	if ok && cur.Version >= b.Version {
		return false, nil
	}
	if err := s.journal(b); err != nil {
		return false, err
	}
	s.m[b.Name] = b
	return true, nil
}

// journal persists one record; caller holds the lock.
func (s *Shard) journal(b Binding) error {
	if s.st == nil {
		return nil
	}
	return s.st.Commit([]cabinet.Op{{Key: cabinetPrefix + b.Name, Value: []byte(b.Encode())}})
}

// LookupAt resolves a name at virtual time now. Missing names and
// tombstones return ErrUnbound; a binding past its lease returns
// ErrExpired (the dead location is withheld).
func (s *Shard) LookupAt(name string, now time.Duration) (Binding, error) {
	s.mu.RLock()
	b, ok := s.m[name]
	s.mu.RUnlock()
	if b.Dropped && b.Expired {
		return Binding{}, fmt.Errorf("%w: %q", ErrExpired, name)
	}
	if !ok || b.Dropped {
		return Binding{}, fmt.Errorf("%w: %q", ErrUnbound, name)
	}
	if b.Expires != 0 && now >= b.Expires {
		return Binding{}, fmt.Errorf("%w: %q", ErrExpired, name)
	}
	return b, nil
}

// Get returns the raw record for a name, expired or not (management
// plane and tests).
func (s *Shard) Get(name string) (Binding, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.m[name]
	return b, ok
}

// SweepExpired tombstones every binding whose lease ran out at now,
// bumping its version so the sweep replicates like any other write.
// owned filters to the names this node coordinates (nil sweeps all —
// only valid when this shard is the sole version authority). It returns
// the swept records, sorted (deterministic per clock state).
func (s *Shard) SweepExpired(now time.Duration, owned func(name string) bool) ([]Binding, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var swept []Binding
	for name, b := range s.m {
		if b.Dropped || b.Expires == 0 || now < b.Expires {
			continue
		}
		if owned != nil && !owned(name) {
			continue
		}
		nb := Binding{Name: name, Version: b.Version + 1, Updated: now, Dropped: true, Expired: true}
		if err := s.journal(nb); err != nil {
			return swept, err
		}
		s.m[name] = nb
		swept = append(swept, nb)
	}
	sort.Slice(swept, func(i, j int) bool { return swept[i].Name < swept[j].Name })
	return swept, nil
}

// Bindings returns every record (tombstones included), sorted by name.
func (s *Shard) Bindings() []Binding {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Binding, 0, len(s.m))
	for _, b := range s.m {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len counts live records (tombstones excluded).
func (s *Shard) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, b := range s.m {
		if !b.Dropped {
			n++
		}
	}
	return n
}

// Recover reloads the shard from its cabinet after a reopen. The
// in-memory map is rebuilt from the journaled records; an acknowledged
// write is by construction on disk, so recovery cannot lose it.
func (s *Shard) Recover() error {
	if s.st == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = make(map[string]Binding)
	for _, key := range s.st.Keys(cabinetPrefix) {
		raw, ok := s.st.Get(key)
		if !ok {
			continue
		}
		b, err := DecodeBinding(string(raw))
		if err != nil {
			return fmt.Errorf("directory: recover %q: %w", key, err)
		}
		s.m[b.Name] = b
	}
	return nil
}
