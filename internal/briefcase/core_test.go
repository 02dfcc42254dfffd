package briefcase

import (
	"crypto/sha256"
	"math/rand"
	"testing"
	"testing/quick"
)

// referenceCoreDigest is what CoreDigest must equal, computed the way the
// pre-manifest signer built its message: copy CODE and BINARIES into a
// fresh briefcase, encode it with the frozen reference codec, hash that.
func referenceCoreDigest(b *Briefcase) [CoreDigestSize]byte {
	sub := New()
	for _, name := range []string{FolderCode, FolderBinaries} {
		if src, err := b.Folder(name); err == nil {
			var c Folder // a clone, so b's folder stays undecoded
			src.cloneInto(&c)
			sub.Ensure(name).Append(c.Bytes()...)
		}
	}
	return sha256.Sum256(ReferenceEncode(sub))
}

// coreCase builds a briefcase whose core folders hold the given elements
// (nil: folder absent; empty: present with no elements) beside folders
// the digest must ignore.
func coreCase(code, bins [][]byte) *Briefcase {
	b := New()
	if code != nil {
		b.Ensure(FolderCode).Append(code...)
	}
	if bins != nil {
		b.Ensure(FolderBinaries).Append(bins...)
	}
	b.Ensure(FolderArgs).AppendString("not covered")
	b.SetString(FolderSysPrincipal, "alice")
	return b
}

func TestCoreDigestMatchesReference(t *testing.T) {
	big := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(big)
	shapes := map[string]struct{ code, bins [][]byte }{
		"both":          {[][]byte{[]byte("tour"), big}, [][]byte{[]byte("amd64\x00image"), {}}},
		"code only":     {[][]byte{[]byte("prog")}, nil},
		"binaries only": {nil, [][]byte{big, []byte("x")}},
		"both absent":   {nil, nil},
		"present empty": {[][]byte{}, [][]byte{}},
		"empty element": {[][]byte{{}}, nil},
		"long varints":  {[][]byte{make([]byte, 127), make([]byte, 128), make([]byte, 16384)}, nil},
	}
	for name, s := range shapes {
		loaded := coreCase(s.code, s.bins)
		want := referenceCoreDigest(loaded)
		// The four states a covered folder pair can be in: built in memory
		// (loaded), just decoded (raw), and one of each.
		states := map[string]func(*Briefcase){
			"loaded": func(*Briefcase) {},
			"raw":    nil,
			"mixed code loaded": func(b *Briefcase) {
				if f, err := b.Folder(FolderCode); err == nil {
					f.load()
				}
			},
			"mixed binaries loaded": func(b *Briefcase) {
				if f, err := b.Folder(FolderBinaries); err == nil {
					f.load()
				}
			},
		}
		for state, touch := range states {
			b := loaded
			if state != "loaded" {
				var err error
				if b, err = Decode(loaded.Encode()); err != nil {
					t.Fatal(err)
				}
			}
			if touch != nil {
				touch(b)
			}
			if got := b.CoreDigest(); got != want {
				t.Errorf("%s/%s: CoreDigest = %x, reference %x", name, state, got, want)
			}
		}
	}
}

func TestPropCoreDigestMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := genBriefcase(rng)
		for _, name := range []string{FolderCode, FolderBinaries} {
			if rng.Intn(4) == 0 {
				continue
			}
			fo := b.Ensure(name)
			for j := rng.Intn(4); j > 0; j-- {
				e := make([]byte, rng.Intn(300))
				rng.Read(e)
				fo.Append(e)
			}
		}
		want := referenceCoreDigest(b)
		dec, err := Decode(b.Encode())
		if err != nil {
			return false
		}
		raw := dec.CoreDigest()
		if fo, err := dec.Folder(FolderCode); err == nil && rng.Intn(2) == 0 {
			fo.load()
		}
		return b.CoreDigest() == want && raw == want && dec.CoreDigest() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The digest covers the core and nothing else, and tells cores apart by
// folder boundaries as well as by bytes.
func TestCoreDigestCoverage(t *testing.T) {
	base := coreCase([][]byte{[]byte("ab"), []byte("c")}, [][]byte{[]byte("img")})
	want := base.CoreDigest()

	same := base.Clone()
	same.Ensure(FolderArgs).AppendString("more")
	same.SetString(FolderSysPrincipal, "bob")
	same.Drop(FolderResults)
	if same.CoreDigest() != want {
		t.Error("a folder outside the core changed the digest")
	}
	differ := map[string]*Briefcase{
		"element boundary moved":    coreCase([][]byte{[]byte("a"), []byte("bc")}, [][]byte{[]byte("img")}),
		"element moved to BINARIES": coreCase([][]byte{[]byte("ab")}, [][]byte{[]byte("c"), []byte("img")}),
		"BINARIES absent":           coreCase([][]byte{[]byte("ab"), []byte("c")}, nil),
		"BINARIES empty":            coreCase([][]byte{[]byte("ab"), []byte("c")}, [][]byte{}),
		"byte flipped":              coreCase([][]byte{[]byte("ab"), []byte("d")}, [][]byte{[]byte("img")}),
	}
	seen := map[[CoreDigestSize]byte]string{want: "base"}
	for name, b := range differ {
		d := b.CoreDigest()
		if prev, dup := seen[d]; dup {
			t.Errorf("%s digests like %s", name, prev)
		}
		seen[d] = name
	}
}

// stamped returns a briefcase holding all four covered folders with a
// stamp on it. raw says whether the folders are still undecoded.
func stamped(t *testing.T, raw bool) *Briefcase {
	t.Helper()
	b := coreCase([][]byte{[]byte("prog"), []byte("body")}, [][]byte{[]byte("img")})
	b.Ensure(FolderSysSignature).Append(make([]byte, 64))
	if raw {
		var err error
		if b, err = Decode(b.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	b.StampCore(b.CoreDigest(), "alice")
	if _, _, ok := b.CoreStamp(); !ok {
		t.Fatal("fresh stamp does not hold")
	}
	return b
}

func TestCoreStampInvalidatedByEveryMutator(t *testing.T) {
	other := New()
	mutators := map[string]func(b *Briefcase, folder string){
		"Append":       func(b *Briefcase, n string) { b.Ensure(n).Append([]byte("x")) },
		"AppendAlias":  func(b *Briefcase, n string) { b.Ensure(n).AppendAlias([]byte("x")) },
		"AppendString": func(b *Briefcase, n string) { b.Ensure(n).AppendString("x") },
		"Insert":       func(b *Briefcase, n string) { _ = b.Ensure(n).Insert(0, []byte("x")) },
		"Remove":       func(b *Briefcase, n string) { _, _ = b.Ensure(n).Remove(0) },
		"Pop":          func(b *Briefcase, n string) { b.Ensure(n).Pop() },
		"Clear":        func(b *Briefcase, n string) { b.Ensure(n).Clear() },
		"Drop":         func(b *Briefcase, n string) { b.Drop(n) },
		"Drop, re-add": func(b *Briefcase, n string) {
			old := b.Ensure(n).Bytes()
			b.Drop(n)
			b.Ensure(n).Append(old...)
		},
		"Merge": func(b *Briefcase, n string) {
			other.Ensure(n).AppendString("merged")
			b.Merge(other)
			other.Drop(n)
		},
		"SetString": func(b *Briefcase, n string) { b.SetString(n, "x") },
		"SetString same value": func(b *Briefcase, n string) {
			v, _ := b.GetString(n)
			b.SetString(n, v)
		},
		"SetInt": func(b *Briefcase, n string) { b.SetInt(n, 7) },
	}
	for _, raw := range []bool{false, true} {
		for _, folder := range stampFolders {
			for name, mutate := range mutators {
				b := stamped(t, raw)
				mutate(b, folder)
				if _, _, ok := b.CoreStamp(); ok {
					t.Errorf("raw=%v: %s on %s left the stamp valid", raw, name, folder)
				}
			}
		}
	}
}

func TestCoreStampSurvivesReadsAndUncoveredWrites(t *testing.T) {
	for _, raw := range []bool{false, true} {
		b := stamped(t, raw)
		want, _, _ := b.CoreStamp()
		for _, name := range stampFolders {
			f, err := b.Folder(name)
			if err != nil {
				t.Fatal(err)
			}
			f.Len()
			f.Size()
			f.Name()
			f.Strings()
			f.Bytes()
			_, _ = f.Element(0)
			f.load()
			b.Has(name)
			b.Ensure(name)
			b.GetString(name)
			b.GetInt(name)
		}
		_ = b.Encode()
		_ = b.EncodedSize()
		_ = b.String()
		_ = b.Equal(b.Clone())
		b.CoreDigest()
		b.Ensure(FolderResults).AppendString("grows at every stop")
		b.SetString(FolderSysTarget, "tacoma://h2//vm_go")
		b.Drop(FolderSysTarget)
		b.Ensure(FolderHosts).Pop()
		got, principal, ok := b.CoreStamp()
		if !ok || got != want || principal != "alice" {
			t.Errorf("raw=%v: stamp after reads = %x, %q, %v", raw, got, principal, ok)
		}
		if got != b.CoreDigest() {
			t.Errorf("raw=%v: stamped digest is not the core's digest", raw)
		}
	}
}

func TestCoreStampNotCarried(t *testing.T) {
	b := stamped(t, false)
	if _, _, ok := b.Clone().CoreStamp(); ok {
		t.Error("Clone carried the stamp")
	}
	dec, err := Decode(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := dec.CoreStamp(); ok {
		t.Error("the stamp crossed the wire")
	}
	if _, _, ok := New().CoreStamp(); ok {
		t.Error("a new briefcase is stamped")
	}
	// Re-stamping replaces: the old digest is not reported for the new state.
	b.Ensure(FolderCode).AppendString("more")
	d := b.CoreDigest()
	b.StampCore(d, "bob")
	if got, principal, ok := b.CoreStamp(); !ok || got != d || principal != "bob" {
		t.Errorf("re-stamp = %x, %q, %v", got, principal, ok)
	}
}
