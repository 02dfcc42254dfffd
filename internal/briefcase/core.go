package briefcase

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// The agent core is what a core signature vouches for: the CODE and
// BINARIES folders. Arguments and results mutate in flight and are
// deliberately not covered; the paper's "signed agent core" is the code.
// This file gives the signing layer (firewall.SignCore/VerifyCore) the
// three things it needs from the briefcase: the core's digest without
// materializing its encoding, a place to remember that digest for as
// long as the core provably has not changed, and a copy of the core that
// tells, by a byte compare, whether another briefcase carries it too.

// coreFolders are the folders CoreDigest covers, in wire (lexicographic)
// order; stampFolders adds the two a signature check also reads.
var (
	coreFolders  = [...]string{FolderBinaries, FolderCode}
	stampFolders = [...]string{FolderBinaries, FolderCode, FolderSysPrincipal, FolderSysSignature}
)

// CoreDigestSize is the length of a core digest (SHA-256).
const CoreDigestSize = sha256.Size

// CoreDigest returns the SHA-256 of the canonical wire encoding of the
// sub-briefcase holding b's CODE and BINARIES folders (whichever of the
// two exist). The encoding is never built: header fields and each
// folder's wire region — or, once loaded, its elements — are streamed
// into the hasher, so the cost is one pass over the core and no copy of
// it.
func (b *Briefcase) CoreDigest() [CoreDigestSize]byte {
	h := sha256.New()
	var present [len(coreFolders)]*Folder
	n := 0
	for i, name := range coreFolders {
		if f := b.lookup(name); f != nil {
			present[i] = f
			n++
		}
	}
	// One scratch buffer carries every header field; 32 bytes hold the
	// longest (a folder name plus two uvarints).
	hdr := append(make([]byte, 0, 32), wireMagic[:]...)
	hdr = binary.AppendUvarint(hdr, wireVersion)
	hdr = binary.AppendUvarint(hdr, uint64(n))
	for _, f := range present {
		if f == nil {
			continue
		}
		hdr = binary.AppendUvarint(hdr, uint64(len(f.name)))
		hdr = append(hdr, f.name...)
		hdr = f.hashTo(h, hdr)
	}
	h.Write(hdr)
	var sum [CoreDigestSize]byte
	h.Sum(sum[:0])
	return sum
}

// hashTo streams the folder's element count and elements into h, exactly
// as appendTo would have encoded them. hdr holds header bytes not yet
// written; what is returned is again pending, so small fields coalesce
// into one Write between element bodies.
func (f *Folder) hashTo(h hash.Hash, hdr []byte) []byte {
	if f.raw != nil {
		h.Write(binary.AppendUvarint(hdr, uint64(f.nraw)))
		h.Write(f.raw)
		return hdr[:0]
	}
	hdr = binary.AppendUvarint(hdr, uint64(len(f.elems)))
	for _, e := range f.elems {
		h.Write(binary.AppendUvarint(hdr, uint64(len(e))))
		h.Write(e)
		hdr = hdr[:0]
	}
	return hdr
}

// coreStamp remembers the outcome of a core signature check on the
// in-memory briefcase: the core's digest, the principal the signature in
// _SIGNATURE was made (SignCore) or checked (VerifyCore) for, and the
// exact state of the four folders that outcome depended on.
type coreStamp struct {
	digest    [CoreDigestSize]byte
	principal string
	folders   [len(stampFolders)]*Folder // nil where the folder was absent
	gens      [len(stampFolders)]uint64
}

// StampCore records that, with CODE, BINARIES, _PRINCIPAL and _SIGNATURE
// as they are now, the core digests to digest and _SIGNATURE holds
// principal's signature over it. Only a successful sign or verify may
// call it. The stamp lives on this in-memory value alone — it is never
// encoded and Clone does not carry it — and CoreStamp stops reporting it
// the moment any of the four folders is mutated, dropped or replaced.
func (b *Briefcase) StampCore(digest [CoreDigestSize]byte, principal string) {
	if b.stamp == nil {
		b.stamp = new(coreStamp)
	}
	s := b.stamp
	*s = coreStamp{digest: digest, principal: principal}
	for i, name := range stampFolders {
		if f := b.lookup(name); f != nil {
			s.folders[i], s.gens[i] = f, f.gen
		}
	}
}

// CoreStamp returns what the last StampCore recorded, if it still holds:
// each of the four covered folders must be the same Folder value (or
// still absent) with the same mutation count. Holding the stamped
// folders alive is what makes the identity test sound — a dropped
// folder's address cannot be reused while the stamp points at it.
func (b *Briefcase) CoreStamp() (digest [CoreDigestSize]byte, principal string, ok bool) {
	s := b.stamp
	if s == nil {
		return digest, "", false
	}
	for i, name := range stampFolders {
		f := b.lookup(name)
		if f != s.folders[i] || (f != nil && f.gen != s.gens[i]) {
			return digest, "", false
		}
	}
	return s.digest, s.principal, true
}

// CoreImage is a private copy of a core's wire form — which of CODE and
// BINARIES are present, each one's element count and its wire region —
// and the digest a successful sign or verify computed over it. The
// digest is a pure function of exactly those bytes, so a briefcase whose
// core matches the image byte for byte digests to it too: Match is what
// lets a host reuse a digest without trusting anything but a compare.
type CoreImage struct {
	digest [CoreDigestSize]byte
	buf    []byte                // the regions, back to back
	count  [len(coreFolders)]int // element count; -1 where the folder is absent
	end    [len(coreFolders)]int // where each folder's region ends in buf
}

// region returns the folder's wire region and element count while it
// has one: still undecoded, or empty (whose region is no bytes at all).
// A folder loaded into elements has none, and ok is false.
func (f *Folder) region() (raw []byte, n int, ok bool) {
	switch {
	case f.raw != nil:
		return f.raw, f.nraw, true
	case len(f.elems) == 0:
		return nil, 0, true
	}
	return nil, 0, false
}

// CopyCore copies b's core into an image carrying the stamped digest.
// ok is false — and nothing is copied — unless a core stamp holds (only
// a successful sign or verify leaves one), every present core folder
// still has its wire region, and the regions total at most limit bytes.
// The image owns its bytes: it never aliases the briefcase or the frame
// it was decoded from.
func (b *Briefcase) CopyCore(limit int) (img *CoreImage, ok bool) {
	digest, _, ok := b.CoreStamp()
	if !ok {
		return nil, false
	}
	img = &CoreImage{digest: digest}
	var regions [len(coreFolders)][]byte
	size := 0
	for i, name := range coreFolders {
		img.count[i] = -1
		f := b.lookup(name)
		if f == nil {
			continue
		}
		if regions[i], img.count[i], ok = f.region(); !ok {
			return nil, false
		}
		size += len(regions[i])
	}
	if size > limit {
		return nil, false
	}
	img.buf = make([]byte, 0, size)
	for i, raw := range regions {
		img.buf = append(img.buf, raw...)
		img.end[i] = len(img.buf)
	}
	return img, true
}

// Match returns the image's digest if b's core is the image's: the same
// core folders present, each with its wire region, the same element
// count and byte-equal bytes. Anything else — a loaded folder included —
// is not a match, and b's core must be hashed.
func (img *CoreImage) Match(b *Briefcase) (digest [CoreDigestSize]byte, ok bool) {
	start := 0
	for i, name := range coreFolders {
		f := b.lookup(name)
		if f == nil {
			if img.count[i] >= 0 {
				return digest, false
			}
			continue
		}
		raw, n, ok := f.region()
		if !ok || n != img.count[i] || !bytes.Equal(raw, img.buf[start:img.end[i]]) {
			return digest, false
		}
		start = img.end[i]
	}
	return img.digest, true
}

// Size returns the core bytes the image retains.
func (img *CoreImage) Size() int { return len(img.buf) }
