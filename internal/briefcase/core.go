package briefcase

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// The agent core is what a core signature vouches for: the CODE and
// BINARIES folders. Arguments and results mutate in flight and are
// deliberately not covered; the paper's "signed agent core" is the code.
// This file gives the signing layer (firewall.SignCore/VerifyCore) the
// two things it needs from the briefcase: the core's digest without
// materializing its encoding, and a place to remember that digest for as
// long as the core provably has not changed.

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
		if f, ok := b.folders[name]; ok {
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
		if f, ok := b.folders[name]; ok {
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
		f := b.folders[name]
		if f != s.folders[i] || (f != nil && f.gen != s.gens[i]) {
			return digest, "", false
		}
	}
	return s.digest, s.principal, true
}
