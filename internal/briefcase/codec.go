package briefcase

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Wire format (version 1):
//
//	magic   [4]byte  "TAXB"
//	version uvarint  1
//	nfold   uvarint
//	for each folder, in lexicographic name order:
//	  nameLen uvarint, name bytes
//	  nelem   uvarint
//	  for each element: elemLen uvarint, elem bytes
//
// The encoding is deterministic: equal briefcases encode to equal bytes,
// which lets signatures cover a briefcase by covering its encoding.
//
// The codec below is the mediation fast path. Encoding is a single
// exact-size buffer (EncodedSize is exact, not an estimate) filled by
// AppendTo, optionally drawn from a sync.Pool (EncodePooled). Decoding
// validates the whole frame eagerly — corrupt input is rejected with
// the same errors as the original codec — but defers materializing
// folder contents: each folder keeps a slice of its element region and
// parses it only when first accessed, with elements aliasing the input
// buffer rather than being copied out of it. The frozen original codec
// lives in codec_reference.go and the two are proven byte- and
// behavior-identical by the cross-codec property tests.

var wireMagic = [4]byte{'T', 'A', 'X', 'B'}

// wireVersion is the current briefcase wire-format version.
const wireVersion = 1

var (
	// ErrBadMagic is returned when decoding bytes that are not a briefcase.
	ErrBadMagic = errors.New("briefcase: bad magic")
	// ErrBadVersion is returned for an unsupported wire-format version.
	ErrBadVersion = errors.New("briefcase: unsupported wire version")
	// ErrCorrupt is returned when a frame is truncated or violates limits.
	ErrCorrupt = errors.New("briefcase: corrupt frame")
)

// Encode serializes the briefcase into the deterministic version-1 wire
// format. The buffer is allocated at its exact final size.
func (b *Briefcase) Encode() []byte {
	return b.AppendTo(make([]byte, 0, b.EncodedSize()))
}

// AppendTo appends the briefcase's wire encoding to dst and returns the
// extended slice. Folders are kept in name order, so this is one walk of
// the folder list. A folder that is still an undecoded wire region is
// copied verbatim — re-encoding a briefcase that was only routed, never
// inspected, is a straight memcpy of its folder regions.
func (b *Briefcase) AppendTo(dst []byte) []byte {
	dst = append(dst, wireMagic[:]...)
	dst = binary.AppendUvarint(dst, wireVersion)
	dst = binary.AppendUvarint(dst, uint64(len(b.list)))
	for _, f := range b.list {
		dst = binary.AppendUvarint(dst, uint64(len(f.name)))
		dst = append(dst, f.name...)
		if f.raw != nil {
			dst = binary.AppendUvarint(dst, uint64(f.nraw))
			dst = append(dst, f.raw...)
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(len(f.elems)))
		for _, e := range f.elems {
			dst = binary.AppendUvarint(dst, uint64(len(e)))
			dst = append(dst, e...)
		}
	}
	return dst
}

// encodeBuf is one pooled encode context: the frame buffer and a
// release closure built once per pool item so EncodePooled allocates
// nothing in steady state.
type encodeBuf struct {
	buf     []byte
	release func()
}

// encodePool recycles encode contexts across EncodePooled calls. New is
// installed in an init to let the release closure name the pool.
var encodePool sync.Pool

func init() {
	encodePool.New = func() any {
		eb := &encodeBuf{}
		eb.release = func() { encodePool.Put(eb) }
		return eb
	}
}

// EncodePooled encodes the briefcase into a buffer drawn from a
// package-level pool and returns it with a release function. Calling
// release returns the buffer for reuse; after that the frame must not
// be read. It is safe to never call release — the buffer is then
// garbage like any other — but the steady-state zero-allocation encode
// path depends on callers releasing.
//
// The frame may be handed to a transport that copies it synchronously
// (both simnet and the TCP node copy the payload inside Send) and
// released as soon as Send returns.
func (b *Briefcase) EncodePooled() (frame []byte, release func()) {
	eb := encodePool.Get().(*encodeBuf)
	need := b.EncodedSize()
	if cap(eb.buf) < need {
		eb.buf = make([]byte, 0, need)
	}
	frame = b.AppendTo(eb.buf[:0])
	eb.buf = frame[:0]
	return frame, eb.release
}

// EncodedSize returns the exact length Encode will produce without
// allocating the frame.
func (b *Briefcase) EncodedSize() int {
	n := len(wireMagic) + uvarintLen(wireVersion) + uvarintLen(uint64(len(b.list)))
	for _, f := range b.list {
		n += uvarintLen(uint64(len(f.name))) + len(f.name)
		if f.raw != nil {
			n += uvarintLen(uint64(f.nraw)) + len(f.raw)
			continue
		}
		n += uvarintLen(uint64(len(f.elems)))
		for _, e := range f.elems {
			n += uvarintLen(uint64(len(e))) + len(e)
		}
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Decode parses a version-1 wire frame into a new briefcase. The decode
// limits (MaxFolders and friends) bound resource use on hostile input.
//
// Validation is eager — a malformed frame is rejected here, never later
// — but folder contents are materialized lazily: each folder records
// its element region of data and parses it on first access, and the
// parsed elements alias data rather than copying it. Decode therefore
// retains data; the caller must not modify the buffer afterwards.
// (Both network paths hand the firewall a delivery-private copy, so
// inbound frames satisfy this for free. Callers that reuse buffers
// should use ReferenceDecode, which copies.)
func Decode(data []byte) (*Briefcase, error) {
	d := decoder{buf: data}
	var magic [4]byte
	if !d.read(magic[:]) {
		return nil, fmt.Errorf("%w: short magic", ErrCorrupt)
	}
	if magic != wireMagic {
		return nil, ErrBadMagic
	}
	ver, ok := d.uvarint()
	if !ok {
		return nil, fmt.Errorf("%w: short version", ErrCorrupt)
	}
	if ver != wireVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadVersion, ver)
	}
	nfold, ok := d.uvarint()
	if !ok {
		return nil, fmt.Errorf("%w: short folder count", ErrCorrupt)
	}
	if nfold > MaxFolders {
		return nil, fmt.Errorf("%w: %d folders exceeds limit", ErrCorrupt, nfold)
	}
	// One chunk and one list for every folder the frame claims — but a
	// folder takes at least three bytes (name length, a name byte,
	// element count), so a short frame cannot buy more slots than it
	// could hold. Past the pre-size, carve grows geometrically.
	n := min(nfold, uint64(len(data)-d.off)/3)
	b := &Briefcase{list: make([]*Folder, 0, n), spare: make([]Folder, n)}
	canonical, err := b.readFolders(&d, nfold)
	if !canonical {
		// Out of canonical order: sort once, then compare neighbours.
		// A duplicate is reported as the reference decoder reports it:
		// the first name repeated in wire order, ahead of anything
		// wrong after it.
		byName := slices.Clone(b.list)
		slices.SortFunc(byName, func(x, y *Folder) int { return strings.Compare(x.name, y.name) })
		for i := 1; i < len(byName); i++ {
			if byName[i-1].name == byName[i].name {
				return nil, firstDuplicate(b.list)
			}
		}
		b.list = byName
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// readFolders reads nfold folders into b.list in wire order, validating
// every element region and leaving it undecoded, and then requires the
// frame to end. It reports whether the names arrived in the canonical,
// strictly ascending order; the folders read before an error are in
// b.list either way.
func (b *Briefcase) readFolders(d *decoder, nfold uint64) (canonical bool, err error) {
	canonical = true
	for i := uint64(0); i < nfold; i++ {
		nameLen, ok := d.uvarint()
		if !ok || nameLen > MaxNameSize {
			return canonical, fmt.Errorf("%w: folder name length", ErrCorrupt)
		}
		name, ok := d.slice(int(nameLen))
		if !ok {
			return canonical, fmt.Errorf("%w: short folder name", ErrCorrupt)
		}
		if len(name) == 0 {
			return canonical, fmt.Errorf("%w: empty folder name", ErrCorrupt)
		}
		if k := len(b.list); k > 0 && b.list[k-1].name >= string(name) {
			canonical = false
		}
		f := b.carve(string(name))
		b.list = append(b.list, f)
		nelem, ok := d.uvarint()
		if !ok || nelem > MaxElements {
			return canonical, fmt.Errorf("%w: element count", ErrCorrupt)
		}
		start := d.off
		for j := uint64(0); j < nelem; j++ {
			elemLen, ok := d.uvarint()
			if !ok || elemLen > MaxElementSize {
				return canonical, fmt.Errorf("%w: element length", ErrCorrupt)
			}
			if !d.skip(int(elemLen)) {
				return canonical, fmt.Errorf("%w: short element", ErrCorrupt)
			}
		}
		if nelem > 0 {
			f.raw = d.buf[start:d.off:d.off]
			f.nraw = int(nelem)
		}
	}
	if len(d.buf) != d.off {
		return canonical, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return canonical, nil
}

// firstDuplicate returns the error for the first folder, in wire order,
// whose name an earlier folder already took. It is called only on a
// list known to hold a duplicate.
func firstDuplicate(wire []*Folder) error {
	seen := make(map[string]bool, len(wire))
	for _, f := range wire {
		if seen[f.name] {
			return fmt.Errorf("%w: duplicate folder %q", ErrCorrupt, f.name)
		}
		seen[f.name] = true
	}
	panic("briefcase: firstDuplicate on a list without duplicates")
}

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) read(dst []byte) bool {
	if d.off+len(dst) > len(d.buf) {
		return false
	}
	copy(dst, d.buf[d.off:])
	d.off += len(dst)
	return true
}

// slice returns the next n bytes without copying.
func (d *decoder) slice(n int) ([]byte, bool) {
	if n < 0 || d.off+n > len(d.buf) {
		return nil, false
	}
	s := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return s, true
}

// skip advances past n bytes.
func (d *decoder) skip(n int) bool {
	if n < 0 || d.off+n > len(d.buf) {
		return false
	}
	d.off += n
	return true
}

func (d *decoder) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, false
	}
	d.off += n
	return v, true
}
