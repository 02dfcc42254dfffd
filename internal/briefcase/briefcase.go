// Package briefcase implements the TACOMA briefcase, the transportable
// state of a mobile agent.
//
// A briefcase is an associative array of named folders. Each folder holds
// an ordered list of elements, and an element is an uninterpreted sequence
// of bytes — the most basic data type in TAX. Briefcases are the unit of
// exchange between communicating agents and the consistent snapshot of an
// executing agent as it is transported between hosts.
//
// The API mirrors the C library described in the paper (bcIndex, fRemove,
// eData, ...) in Go idiom: Briefcase.Folder, Folder.Remove, Element bytes.
// Agents can drop folders they no longer need, which minimizes the volume
// of data transmitted when the agent moves.
package briefcase

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
)

// Well-known folder names used by the TAX kernel and the applications in
// this repository. Folders whose names start with an underscore are
// reserved for the system.
const (
	// FolderHosts is the itinerary folder of figure 4: an ordered list of
	// agent-URI elements the agent pops as it travels.
	FolderHosts = "HOSTS"
	// FolderCode carries agent code (source or binary manifest payload).
	FolderCode = "CODE"
	// FolderBinaries carries one element per (architecture-tagged) binary
	// so ag_exec can pick the one matching the local machine.
	FolderBinaries = "BINARIES"
	// FolderArgs carries the agent's arguments.
	FolderArgs = "ARGS"
	// FolderResults accumulates (intermediate) results along an itinerary.
	FolderResults = "RESULTS"
	// FolderStatus is used by monitoring wrappers for status reports.
	FolderStatus = "STATUS"

	// FolderSysSender is set by the firewall to the authenticated sender URI.
	FolderSysSender = "_SENDER"
	// FolderSysTarget is set by the sender to the destination agent URI.
	FolderSysTarget = "_TARGET"
	// FolderSysSignature carries the detached signature of the agent core.
	FolderSysSignature = "_SIGNATURE"
	// FolderSysPrincipal names the principal the agent acts for.
	FolderSysPrincipal = "_PRINCIPAL"
	// FolderSysError carries an error report generated by the system.
	FolderSysError = "_ERROR"
	// FolderSysWrap carries the wrapper manifest an agent travels with.
	FolderSysWrap = "_WRAP"
	// FolderSysTrace carries the telemetry trace id the briefcase belongs
	// to; it travels with the agent so a whole itinerary forms one trace.
	FolderSysTrace = "_TRACE"
	// FolderSysSpan carries the current parent span id for trace-context
	// propagation: spans opened for this briefcase become its children.
	FolderSysSpan = "_PSPAN"
	// FolderSysRetry carries the sender's retry policy for remote
	// forwards ("attempts|backoff_ns|deadline_ns", see firewall
	// RetryPolicy). It travels with the briefcase so every hop of an
	// itinerary — and every reply in a conversation — retries alike.
	FolderSysRetry = "_RETRY"
	// FolderSysRearGuard carries the home rear-guard's agent URI: the
	// supervisor that restores the agent from its last checkpoint when a
	// hop is declared dead (see internal/rearguard).
	FolderSysRearGuard = "_RGHOME"
)

// Limits applied when decoding briefcases received from the network. They
// guard the firewall against malformed or hostile frames.
const (
	// MaxFolders is the maximum number of folders in a decoded briefcase.
	MaxFolders = 1 << 16
	// MaxElements is the maximum number of elements in a decoded folder.
	MaxElements = 1 << 20
	// MaxElementSize is the maximum size in bytes of a decoded element.
	MaxElementSize = 1 << 26 // 64 MiB
	// MaxNameSize is the maximum length of a decoded folder name.
	MaxNameSize = 1 << 10
)

var (
	// ErrNoFolder is returned when a named folder does not exist.
	ErrNoFolder = errors.New("briefcase: no such folder")
	// ErrNoElement is returned when an element index is out of range.
	ErrNoElement = errors.New("briefcase: no such element")
	// ErrEmptyName is returned when a folder name is empty.
	ErrEmptyName = errors.New("briefcase: empty folder name")
)

// Element is an uninterpreted sequence of bytes, the most basic data type
// in TAX. Elements are immutable by convention: operations copy on write.
type Element []byte

// String returns the element bytes as a string.
func (e Element) String() string { return string(e) }

// Clone returns an independent copy of the element.
func (e Element) Clone() Element {
	if e == nil {
		return nil
	}
	c := make(Element, len(e))
	copy(c, e)
	return c
}

// noCopy, the first field of a struct that must not be copied by value,
// makes go vet's copylocks check report a copy. It takes no space.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Folder is an ordered list of elements with a name.
//
// A Folder lives in a slot of its briefcase's chunk (see Briefcase) and
// must never be copied by value: elems may point at the folder's own
// inline slot. go vet's copylocks check rejects such a copy (noCopy).
type Folder struct {
	noCopy noCopy

	name  string
	elems []Element

	// one is inline storage for a folder's first element. A folder that
	// holds one element — every scalar field (_TARGET, _SENDER, _MSGID,
	// BODY, ...) — points elems at it instead of allocating a slice;
	// appending a second element moves elems to the heap as usual.
	one [1]Element

	// raw, when non-nil, is the folder's still-undecoded wire region:
	// nraw elements as (uvarint length, bytes) pairs, already validated
	// by Decode. It is parsed into elems on first access (load), with
	// the elements aliasing the region instead of copying it; until
	// then Len, Size, AppendTo and cloneInto work directly on the region.
	raw  []byte
	nraw int

	// gen counts mutations: every method that changes the element list
	// bumps it, and reading (load included) never does. A core stamp
	// (core.go) records it to tell whether a covered folder changed.
	gen uint64
}

// grow readies elems to take n more elements: an empty folder that is
// to hold at most one starts on its inline slot.
func (f *Folder) grow(n int) {
	if cap(f.elems) == 0 && n <= 1 {
		f.elems = f.one[:0]
	}
}

// Grow readies the folder to take n more elements without moving its
// list again, as slices.Grow does for a slice: a caller that knows how
// many elements it will append pays one allocation, not one per
// doubling. It changes no element, so it is not a mutation.
func (f *Folder) Grow(n int) {
	f.load()
	f.grow(n)
	f.elems = slices.Grow(f.elems, n)
}

// load materializes a lazily decoded folder. The region was fully
// validated by Decode, so parsing cannot fail; the resulting elements
// alias the region (elements are immutable by convention — every
// mutating folder operation copies).
func (f *Folder) load() {
	if f.raw == nil {
		return
	}
	raw, n := f.raw, f.nraw
	f.raw, f.nraw = nil, 0
	if n == 1 {
		f.elems = f.one[:0]
	} else {
		f.elems = make([]Element, 0, n)
	}
	off := 0
	for i := 0; i < n; i++ {
		l, k := binary.Uvarint(raw[off:])
		off += k
		f.elems = append(f.elems, Element(raw[off:off+int(l):off+int(l)]))
		off += int(l)
	}
}

// Name returns the folder's name.
func (f *Folder) Name() string { return f.name }

// Len returns the number of elements in the folder.
func (f *Folder) Len() int {
	if f.raw != nil {
		return f.nraw
	}
	return len(f.elems)
}

// Append adds elements at the end of the folder. The byte slices are
// copied so the caller keeps ownership of its buffers.
func (f *Folder) Append(data ...[]byte) {
	f.load()
	f.gen++
	f.grow(len(data))
	for _, d := range data {
		f.elems = append(f.elems, Element(d).Clone())
	}
}

// AppendAlias adds one element that aliases data instead of copying it.
// The caller warrants that data stays immutable while the briefcase (or
// anything encoded from it) is in use — the same contract the aliasing
// Decode already imposes on its input buffer. The zero-copy forwarding
// path uses it to seal a frame around payload bytes it does not own
// twice over: the payload is copied exactly once, into the encoding.
func (f *Folder) AppendAlias(data []byte) {
	f.load()
	f.gen++
	f.grow(1)
	f.elems = append(f.elems, Element(data))
}

// AppendString adds string elements at the end of the folder.
func (f *Folder) AppendString(values ...string) {
	f.load()
	f.gen++
	f.grow(len(values))
	for _, v := range values {
		f.elems = append(f.elems, Element(v))
	}
}

// Insert places an element at index i (0 ≤ i ≤ Len). It returns
// ErrNoElement if the index is out of range.
func (f *Folder) Insert(i int, data []byte) error {
	f.load()
	if i < 0 || i > len(f.elems) {
		return fmt.Errorf("%w: insert at %d of %d", ErrNoElement, i, len(f.elems))
	}
	f.gen++
	f.grow(1)
	f.elems = append(f.elems, nil)
	copy(f.elems[i+1:], f.elems[i:])
	f.elems[i] = Element(data).Clone()
	return nil
}

// Element returns the element at index i without removing it.
func (f *Folder) Element(i int) (Element, error) {
	f.load()
	if i < 0 || i >= len(f.elems) {
		return nil, fmt.Errorf("%w: index %d of %d", ErrNoElement, i, len(f.elems))
	}
	return f.elems[i].Clone(), nil
}

// Remove removes and returns the element at index i. This is the paper's
// fRemove primitive (the paper indexes from 1; we use Go's 0-based
// convention).
func (f *Folder) Remove(i int) (Element, error) {
	f.load()
	if i < 0 || i >= len(f.elems) {
		return nil, fmt.Errorf("%w: remove %d of %d", ErrNoElement, i, len(f.elems))
	}
	f.gen++
	e := f.elems[i]
	copy(f.elems[i:], f.elems[i+1:])
	f.elems[len(f.elems)-1] = nil
	f.elems = f.elems[:len(f.elems)-1]
	return e, nil
}

// Pop removes and returns the first element, the figure-4 itinerary idiom.
// ok is false when the folder is empty.
func (f *Folder) Pop() (Element, bool) {
	f.load()
	if len(f.elems) == 0 {
		return nil, false
	}
	e, _ := f.Remove(0)
	return e, true
}

// Clear removes all elements.
func (f *Folder) Clear() {
	f.elems, f.one, f.raw, f.nraw = nil, [1]Element{}, nil, 0
	f.gen++
}

// Strings returns all elements as strings, in order.
func (f *Folder) Strings() []string {
	f.load()
	out := make([]string, len(f.elems))
	for i, e := range f.elems {
		out[i] = string(e)
	}
	return out
}

// Peek is Element without the copy: the i-th element, 0 ≤ i < Len, as
// the folder holds it, under Briefcase.Peek's contract. It aliases the
// briefcase and, for a decoded one, its frame; the bytes must not be
// modified, and a caller that keeps them past the briefcase copies
// them.
func (f *Folder) Peek(i int) []byte {
	f.load()
	return f.elems[i]
}

// Bytes returns copies of all elements, in order.
func (f *Folder) Bytes() [][]byte {
	f.load()
	out := make([][]byte, len(f.elems))
	for i, e := range f.elems {
		out[i] = e.Clone()
	}
	return out
}

// Size returns the folder's payload size in bytes (element bytes only).
// An undecoded folder is sized by scanning its wire region without
// materializing it.
func (f *Folder) Size() int {
	n := 0
	if f.raw != nil {
		for off := 0; off < len(f.raw); {
			l, k := binary.Uvarint(f.raw[off:])
			off += k + int(l)
			n += int(l)
		}
		return n
	}
	for _, e := range f.elems {
		n += len(e)
	}
	return n
}

// cloneInto makes c, a fresh slot, a deep copy of the folder. An
// undecoded folder stays undecoded: the wire region is immutable once
// set (every mutation materializes first), so the clone can share it.
func (f *Folder) cloneInto(c *Folder) {
	c.name = f.name
	if f.raw != nil {
		c.raw, c.nraw = f.raw, f.nraw
		return
	}
	c.grow(len(f.elems))
	if cap(c.elems) < len(f.elems) {
		c.elems = make([]Element, 0, len(f.elems))
	}
	for _, e := range f.elems {
		c.elems = append(c.elems, e.Clone())
	}
}

// Briefcase is an associative array of folders. The zero value is not
// usable; construct with New.
//
// The folders are one name-sorted slice, searched by bisection, and
// they live in chunks of Folder values carved one slot at a time. A slot
// is handed out once and never reused — Drop only unlinks it — so a
// folder's address names that folder for as long as anything holds it,
// which is what the core stamp's identity test (core.go) relies on.
//
// A Briefcase must never be copied by value: list may point at the
// briefcase's own inline backing. go vet's copylocks check rejects such
// a copy (noCopy).
type Briefcase struct {
	noCopy noCopy

	list  []*Folder // sorted by name, names unique
	spare []Folder  // the current chunk's slots not yet handed out

	// stamp, when non-nil, is the record a core signature check left
	// behind (core.go). It is in-memory only: never encoded, and not
	// carried by Clone.
	stamp *coreStamp

	// inline backs list for the first four folders. New, Clone and
	// Decode start list on it, so a briefcase of up to four folders —
	// every small message — needs no list of its own; a fifth moves
	// list to the heap as append does.
	inline [4]*Folder
}

// minChunk is the size of a briefcase's first chunk of folder slots.
// A later chunk holds half as many slots as the briefcase has folders,
// so one built folder by folder carves its slots from O(log n)
// allocations, and a decoded briefcase that gains a folder or two (a
// hop's _SENDER, _TARGET) does not pay for a second full copy of its
// chunk.
const minChunk = 4

// New returns an empty briefcase.
func New() *Briefcase { return newSized(0) }

// newSized returns an empty briefcase whose list has room for n folders:
// on its inline backing when that holds n.
func newSized(n int) *Briefcase {
	b := &Briefcase{}
	if n <= len(b.inline) {
		b.list = b.inline[:0]
	} else {
		b.list = make([]*Folder, 0, n)
	}
	return b
}

// find returns the index of the named folder in b.list and whether it is
// there; when it is not, the index is where it would be inserted.
func (b *Briefcase) find(name string) (int, bool) {
	lo, hi := 0, len(b.list)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.list[m].name < name {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(b.list) && b.list[lo].name == name
}

// lookup returns the named folder, or nil.
func (b *Briefcase) lookup(name string) *Folder {
	if i, ok := b.find(name); ok {
		return b.list[i]
	}
	return nil
}

// carve hands out a fresh folder slot named name, starting a new chunk
// when the current one is used up, and makes room in b.list for every
// slot of a new chunk. The folder is not linked into b.list.
func (b *Briefcase) carve(name string) *Folder {
	if len(b.spare) == 0 {
		n := max(minChunk, len(b.list)/2)
		b.spare = make([]Folder, n)
		b.list = slices.Grow(b.list, n)
	}
	f := &b.spare[0]
	b.spare = b.spare[1:]
	f.name = name
	return f
}

// Folder returns the named folder, or ErrNoFolder. This is the paper's
// bcIndex primitive. The returned folder is live: mutations are visible in
// the briefcase.
func (b *Briefcase) Folder(name string) (*Folder, error) {
	f := b.lookup(name)
	if f == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoFolder, name)
	}
	return f, nil
}

// Has reports whether the named folder exists.
func (b *Briefcase) Has(name string) bool {
	_, ok := b.find(name)
	return ok
}

// Ensure returns the named folder, creating it if absent.
func (b *Briefcase) Ensure(name string) *Folder {
	i, ok := b.find(name)
	if ok {
		return b.list[i]
	}
	f := b.carve(name)
	b.list = slices.Insert(b.list, i, f)
	return f
}

// Drop removes the named folder entirely. Dropping state no longer needed
// minimizes the volume of data transmitted when the agent moves. Dropping
// an absent folder is a no-op. A *Folder held across Drop stays valid
// and keeps its elements; a later Ensure of the name is a new folder.
func (b *Briefcase) Drop(name string) {
	if i, ok := b.find(name); ok {
		b.list = slices.Delete(b.list, i, i+1)
	}
}

// Names returns the folder names in lexicographic order (the briefcase is
// associative; a deterministic order is needed for the wire codec and for
// stable iteration).
func (b *Briefcase) Names() []string {
	names := make([]string, len(b.list))
	for i, f := range b.list {
		names[i] = f.name
	}
	return names
}

// Len returns the number of folders.
func (b *Briefcase) Len() int { return len(b.list) }

// Size returns the total payload size in bytes across all folders. The
// wire encoding adds a small framing overhead on top of this.
func (b *Briefcase) Size() int {
	n := 0
	for _, f := range b.list {
		n += len(f.name) + f.Size()
	}
	return n
}

// Clone returns a deep copy of the briefcase: one exactly sized chunk,
// and a list of its own, inline for up to four folders.
func (b *Briefcase) Clone() *Briefcase {
	chunk := make([]Folder, len(b.list))
	c := newSized(len(b.list))
	for i, f := range b.list {
		f.cloneInto(&chunk[i])
		c.list = append(c.list, &chunk[i])
	}
	return c
}

// Merge copies every folder of src into b. Folders present in both are
// concatenated: src's elements are appended after b's. b.Merge(b)
// doubles every folder.
func (b *Briefcase) Merge(src *Briefcase) {
	for _, sf := range src.list {
		sf.load()
		df := b.Ensure(sf.name)
		df.load()
		df.gen++
		df.grow(len(sf.elems))
		for _, e := range sf.elems {
			df.elems = append(df.elems, e.Clone())
		}
	}
}

// Equal reports whether two briefcases have identical folders and elements.
func (b *Briefcase) Equal(o *Briefcase) bool {
	if len(b.list) != len(o.list) {
		return false
	}
	for i, f := range b.list {
		of := o.list[i]
		if f.name != of.name {
			return false
		}
		// Two undecoded folders are equal iff their wire regions are:
		// the region fixes the element list bijectively.
		if f.raw != nil && of.raw != nil {
			if f.nraw != of.nraw || !bytes.Equal(f.raw, of.raw) {
				return false
			}
			continue
		}
		f.load()
		of.load()
		if len(f.elems) != len(of.elems) {
			return false
		}
		for i := range f.elems {
			if string(f.elems[i]) != string(of.elems[i]) {
				return false
			}
		}
	}
	return true
}

// SetString replaces the named folder's contents with a single string
// element. It is a convenience for scalar briefcase fields (_TARGET, ...).
func (b *Briefcase) SetString(folder, value string) {
	f := b.Ensure(folder)
	f.gen++
	f.raw, f.nraw = nil, 0
	f.elems = f.elems[:0]
	f.grow(1)
	f.elems = append(f.elems, Element(value))
}

// GetString returns the first element of the named folder as a string.
// It returns "" and false when the folder is absent or empty.
func (b *Briefcase) GetString(folder string) (string, bool) {
	e, ok := b.Peek(folder)
	return string(e), ok
}

// Peek is GetString without the copy: the first element of the named
// folder as the briefcase holds it, aliasing the briefcase and, for a
// decoded one, its frame. The bytes must not be modified. Elements are
// never written in place, so they stay valid after the folder changes;
// a caller that keeps what it read copies it (or interns it, as the
// firewall does with addresses), so a small string does not pin a
// whole frame.
func (b *Briefcase) Peek(folder string) ([]byte, bool) {
	f := b.lookup(folder)
	if f == nil {
		return nil, false
	}
	f.load()
	if len(f.elems) == 0 {
		return nil, false
	}
	return f.elems[0], true
}

// SetInt replaces the named folder's contents with one decimal element.
func (b *Briefcase) SetInt(folder string, v int64) {
	b.SetString(folder, strconv.FormatInt(v, 10))
}

// GetInt returns the first element of the named folder parsed as a decimal
// integer.
func (b *Briefcase) GetInt(folder string) (int64, bool) {
	s, ok := b.GetString(folder)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// String returns a compact human-readable summary, e.g.
// "bc{ARGS:2 HOSTS:3 (58B)}".
func (b *Briefcase) String() string {
	s := "bc{"
	for i, f := range b.list {
		if i > 0 {
			s += " "
		}
		s += f.name + ":" + strconv.Itoa(f.Len())
	}
	return s + " (" + strconv.Itoa(b.Size()) + "B)}"
}
