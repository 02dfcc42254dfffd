package uri

import (
	"encoding/binary"
	"sync/atomic"
)

// The intern table. Every message names its target and its sender by
// address, and the same few addresses recur on every message of a
// conversation, so each is parsed once per process, not once per read.
// ParseBytes and ParseString look an address up by its bytes in one
// bounded, process-wide table of immutable entries and call Parse only
// on a miss:
//
//   - A hit takes no lock and allocates nothing: a set is internWays
//     atomic pointers, found by a deterministic hash and confirmed by a
//     full byte compare.
//   - An address is admitted on its second sighting. A miss leaves its
//     hash as a ticket in its set, which keeps the last internWays
//     tickets, and a later miss that finds its own ticket admits. An
//     address seen once, such as a fresh agent instance's first and only
//     _SENDER, costs what Parse costs.
//   - Parse errors are never cached, and an address longer than
//     maxInternLen is never retained, so memory stays bounded whatever
//     addresses peers send.
//
// An entry is never mutated once published. Eviction only unlinks it,
// so an Addr handed out earlier stays valid for as long as it is held.

const (
	internSetBits = 9
	internSets    = 1 << internSetBits
	internWays    = 2
	// maxInternLen caps a retained address: the table never holds more
	// than internSets × internWays × maxInternLen bytes of addresses.
	maxInternLen = 256
)

// Addr is an address with its parse. Text and every string in URI are
// the caller's own, or, for an interned address, the table's: they never
// alias the bytes ParseBytes was given.
type Addr struct {
	Text string
	URI  URI

	// raw is Text's bytes when the address is interned: the table's own
	// copy, immutable. Nil otherwise.
	raw []byte
}

// Bytes returns the address as bytes. An interned address returns the
// table's immutable copy, which a briefcase may alias (Folder.AppendAlias)
// and nobody may modify; any other returns a fresh copy.
func (a Addr) Bytes() []byte {
	if a.raw != nil {
		return a.raw
	}
	return []byte(a.Text)
}

// ParseBytes is Parse of string(b) through the intern table. b is read,
// never retained: the result does not alias it.
func ParseBytes(b []byte) (Addr, error) { return table.parseBytes(b) }

// ParseString is Parse of s through the intern table.
func ParseString(s string) (Addr, error) { return table.parseString(s) }

// table is the process-wide intern table.
var table internTable

type internTable struct {
	sets [internSets]internSet
}

type internSet struct {
	ways [internWays]atomic.Pointer[internEntry]
	// tickets are the hashes, low bit set, of the last internWays
	// addresses that missed here, newest first: as many as the set
	// holds, so two addresses that miss in turn both get admitted. Zero
	// matches no address.
	tickets [internWays]atomic.Uint64
}

type internEntry struct {
	hash uint64
	addr Addr
}

func (t *internTable) parseBytes(b []byte) (Addr, error) {
	if len(b) > maxInternLen {
		return parse(string(b))
	}
	h := hashBytes(b)
	if e := find(t, h, b); e != nil {
		return e.addr, nil
	}
	return t.miss(h, string(b))
}

func (t *internTable) parseString(s string) (Addr, error) {
	if len(s) > maxInternLen {
		return parse(s)
	}
	h := hashString(s)
	if e := find(t, h, s); e != nil {
		return e.addr, nil
	}
	return t.miss(h, s)
}

// find returns the entry holding b, which hashes to h, or nil.
func find[T ~string | ~[]byte](t *internTable, h uint64, b T) *internEntry {
	set := t.set(h)
	for i := range set.ways {
		if e := set.ways[i].Load(); e != nil && e.hash == h && e.addr.Text == string(b) {
			return e
		}
	}
	return nil
}

// miss parses text, which hashes to h, and admits it on its second
// sighting.
func (t *internTable) miss(h uint64, text string) (Addr, error) {
	a, err := parse(text)
	if set := t.set(h); err == nil && set.sighted(h) {
		a = set.admit(h, text)
	}
	return a, err
}

// set is the set h picks, by its top bits.
func (t *internTable) set(h uint64) *internSet { return &t.sets[h>>(64-internSetBits)] }

func parse(s string) (Addr, error) {
	u, err := Parse(s)
	return Addr{Text: s, URI: u}, err
}

// sighted reports whether the address hashing to h holds a ticket, and
// gives it one when it does not, dropping the oldest.
func (s *internSet) sighted(h uint64) bool {
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

// admit publishes text, already parsed once, at the front of the set:
// every entry moves one way back and the last is dropped. Two hot
// addresses that share a set therefore both stay; a third evicts the
// older. Racing admissions may leave an entry twice or drop one early,
// which costs a later miss, never a wrong answer.
func (s *internSet) admit(h uint64, text string) Addr {
	raw := []byte(text)
	e := &internEntry{hash: h, addr: Addr{Text: string(raw), raw: raw}}
	e.addr.URI, _ = Parse(e.addr.Text) // parsed before: cannot fail
	for i := len(s.ways) - 1; i > 0; i-- {
		s.ways[i].Store(s.ways[i-1].Load())
	}
	s.ways[0].Store(e)
	return e.addr
}

// hashString and hashBytes are one hash over the two forms of an
// address (FuzzParseBytes holds them equal). It is deterministic, so a
// set's contents depend only on the addresses seen, never on the
// process. Each step multiplies eight bytes into the state, which
// carries every input bit into the top bits that choose the set.
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
