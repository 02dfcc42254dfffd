package briefcase

import (
	"encoding/binary"
	"fmt"
)

// This file freezes the pre-fast-path codec. It is the oracle the
// fast path is proven against: the cross-codec property tests and
// FuzzCrossCodec require ReferenceEncode/Encode to produce identical
// bytes and ReferenceDecode/Decode to accept identical inputs with
// equal results, and the hotpath benchmark uses it as the allocs/op
// baseline. Do not "optimise" this file — its value is that it does
// not change.

// ReferenceEncode serializes the briefcase with the original eager
// codec: one buffer sized by estimate, elements appended one by one.
// It produces exactly the same bytes as Encode.
func ReferenceEncode(b *Briefcase) []byte {
	// Pre-size: payload + a generous varint/name allowance.
	buf := make([]byte, 0, b.Size()+32+16*b.Len())
	buf = append(buf, wireMagic[:]...)
	buf = binary.AppendUvarint(buf, wireVersion)
	names := b.Names()
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		f := b.lookup(name)
		f.load()
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		buf = binary.AppendUvarint(buf, uint64(len(f.elems)))
		for _, e := range f.elems {
			buf = binary.AppendUvarint(buf, uint64(len(e)))
			buf = append(buf, e...)
		}
	}
	return buf
}

// ReferenceDecode parses a version-1 wire frame with the original
// eager decoder: every element is allocated and copied out of data, so
// the result never aliases the input. It accepts exactly the inputs
// Decode accepts and rejects the rest with the same errors.
func ReferenceDecode(data []byte) (*Briefcase, error) {
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
	b := New()
	for i := uint64(0); i < nfold; i++ {
		nameLen, ok := d.uvarint()
		if !ok || nameLen > MaxNameSize {
			return nil, fmt.Errorf("%w: folder name length", ErrCorrupt)
		}
		name := make([]byte, nameLen)
		if !d.read(name) {
			return nil, fmt.Errorf("%w: short folder name", ErrCorrupt)
		}
		if len(name) == 0 {
			return nil, fmt.Errorf("%w: empty folder name", ErrCorrupt)
		}
		if b.Has(string(name)) {
			return nil, fmt.Errorf("%w: duplicate folder %q", ErrCorrupt, name)
		}
		f := b.Ensure(string(name))
		nelem, ok := d.uvarint()
		if !ok || nelem > MaxElements {
			return nil, fmt.Errorf("%w: element count", ErrCorrupt)
		}
		f.elems = make([]Element, 0, min(nelem, 1024))
		for j := uint64(0); j < nelem; j++ {
			elemLen, ok := d.uvarint()
			if !ok || elemLen > MaxElementSize {
				return nil, fmt.Errorf("%w: element length", ErrCorrupt)
			}
			e := make(Element, elemLen)
			if !d.read(e) {
				return nil, fmt.Errorf("%w: short element", ErrCorrupt)
			}
			f.elems = append(f.elems, e)
		}
	}
	if len(d.buf) != d.off {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return b, nil
}
