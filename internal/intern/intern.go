// Package intern keeps a bounded table of immutable values keyed by
// short strings that recur on every message: agent addresses (package
// uri) and folder names (package briefcase). Each key is turned into its
// value once per process, not once per read. Bytes and String look a key
// up by its bytes and call the table's build function only on a miss:
//
//   - A hit takes no lock and allocates nothing: a set is Ways atomic
//     pointers, found by a deterministic hash and confirmed by a full
//     byte compare.
//   - A key is admitted on its second sighting. A miss leaves its hash
//     as a ticket in its set, which keeps the last Ways tickets, and a
//     later miss that finds its own ticket admits. A key seen once, such
//     as a fresh agent instance's first and only _SENDER, costs what
//     build costs.
//   - Build errors are never cached, and a key longer than MaxLen is
//     never retained, so memory stays bounded whatever keys peers send.
//
// An entry is never mutated once published. Eviction only unlinks it,
// so a value handed out earlier stays valid for as long as it is held.
package intern

import (
	"encoding/binary"
	"strings"
	"sync/atomic"
)

const (
	setBits = 9
	// Sets and Ways are a table's shape: it holds at most Sets × Ways
	// entries.
	Sets = 1 << setBits
	Ways = 2
	// MaxLen caps a retained key: a table never holds more than
	// Sets × Ways × MaxLen bytes of keys.
	MaxLen = 256
)

// Table maps a key to the value its build function makes of it. The
// key handed to build never aliases the bytes Bytes was given; kept
// says whether the table retains the value, which a build may use to
// give a retained value more than it gives a one-off.
type Table[V any] struct {
	build func(key string, kept bool) (V, error)
	sets  [Sets]set[V]
}

// New returns an empty table over build. A build that succeeds on a
// key once must succeed on it again: an admitted key is built twice,
// once when it misses and once, kept, when it is admitted.
func New[V any](build func(key string, kept bool) (V, error)) *Table[V] {
	return &Table[V]{build: build}
}

type set[V any] struct {
	ways [Ways]atomic.Pointer[entry[V]]
	// tickets are the hashes, low bit set, of the last Ways keys that
	// missed here, newest first: as many as the set holds, so two keys
	// that miss in turn both get admitted. Zero matches no key.
	tickets [Ways]atomic.Uint64
}

type entry[V any] struct {
	hash uint64
	key  string
	val  V
}

// Bytes is the value for string(b). b is read, never retained: the key
// a miss builds from is a copy.
func (t *Table[V]) Bytes(b []byte) (V, error) {
	if len(b) > MaxLen {
		return t.build(string(b), false)
	}
	h := hashBytes(b)
	if e := find(t, h, b); e != nil {
		return e.val, nil
	}
	return t.miss(h, string(b), true)
}

// String is the value for s. A retained key is the table's own copy,
// never s.
func (t *Table[V]) String(s string) (V, error) {
	if len(s) > MaxLen {
		return t.build(s, false)
	}
	h := hashString(s)
	if e := find(t, h, s); e != nil {
		return e.val, nil
	}
	return t.miss(h, s, false)
}

// Holds reports whether key is in the table.
func (t *Table[V]) Holds(key string) bool { return find(t, hashString(key), key) != nil }

// Len is the number of ways holding an entry. Racing admissions can
// hold one key twice, so it may count a key more than once.
func (t *Table[V]) Len() int {
	n := 0
	for i := range t.sets {
		for w := range t.sets[i].ways {
			if t.sets[i].ways[w].Load() != nil {
				n++
			}
		}
	}
	return n
}

// find returns the entry holding b, which hashes to h, or nil.
func find[V any, T ~string | ~[]byte](t *Table[V], h uint64, b T) *entry[V] {
	set := t.set(h)
	for i := range set.ways {
		if e := set.ways[i].Load(); e != nil && e.hash == h && e.key == string(b) {
			return e
		}
	}
	return nil
}

// miss builds key, which hashes to h, and admits it on its second
// sighting. owned says whether key is already a copy the table may
// keep.
func (t *Table[V]) miss(h uint64, key string, owned bool) (V, error) {
	v, err := t.build(key, false)
	if s := t.set(h); err == nil && s.sighted(h) {
		if !owned {
			key = strings.Clone(key)
		}
		v, _ = t.build(key, true) // built before: cannot fail
		s.admit(&entry[V]{hash: h, key: key, val: v})
	}
	return v, err
}

// set is the set h picks, by its top bits.
func (t *Table[V]) set(h uint64) *set[V] { return &t.sets[h>>(64-setBits)] }

// sighted reports whether the key hashing to h holds a ticket, and
// gives it one when it does not, dropping the oldest.
func (s *set[V]) sighted(h uint64) bool {
	tk := h | 1
	for i := range s.tickets {
		if s.tickets[i].Load() == tk {
			s.tickets[i].Store(0)
			return true
		}
	}
	for i := len(s.tickets) - 1; i > 0; i-- {
		s.tickets[i].Store(s.tickets[i-1].Load())
	}
	s.tickets[0].Store(tk)
	return false
}

// admit publishes e at the front of the set: every entry moves one way
// back and the last is dropped. Two hot keys that share a set therefore
// both stay; a third evicts the older. Racing admissions may leave an
// entry twice or drop one early, which costs a later miss, never a
// wrong answer.
func (s *set[V]) admit(e *entry[V]) {
	for i := len(s.ways) - 1; i > 0; i-- {
		s.ways[i].Store(s.ways[i-1].Load())
	}
	s.ways[0].Store(e)
}

// hashString and hashBytes are one hash over the two forms of a key
// (TestHashFormsAgree holds them equal). It is deterministic, so a set's
// contents depend only on the keys seen, never on the process. Each
// step multiplies eight bytes into the state, which carries every input
// bit into the top bits that choose the set.
func hashString(s string) uint64 {
	h := uint64(len(s)) * hashMul
	for ; len(s) >= 8; s = s[8:] {
		c := s[:8]
		h = hashStep(h, uint64(c[0])|uint64(c[1])<<8|uint64(c[2])<<16|uint64(c[3])<<24|
			uint64(c[4])<<32|uint64(c[5])<<40|uint64(c[6])<<48|uint64(c[7])<<56)
	}
	var w uint64
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * i)
	}
	return hashStep(h, w)
}

func hashBytes(b []byte) uint64 {
	h := uint64(len(b)) * hashMul
	for ; len(b) >= 8; b = b[8:] {
		h = hashStep(h, binary.LittleEndian.Uint64(b))
	}
	var w uint64
	for i := 0; i < len(b); i++ {
		w |= uint64(b[i]) << (8 * i)
	}
	return hashStep(h, w)
}

const hashMul = 0x9e3779b97f4a7c15

func hashStep(h, w uint64) uint64 {
	h = (h ^ w) * hashMul
	return h ^ h>>32
}
