package vm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
	"testing/quick"

	"tax/internal/agent"
	"tax/internal/briefcase"
)

func TestRegistry(t *testing.T) {
	var r Registry
	if _, ok := r.Lookup("x"); ok {
		t.Error("zero registry resolved a program")
	}
	called := false
	r.Register("x", func(*agent.Context) error { called = true; return nil })
	h, ok := r.Lookup("x")
	if !ok {
		t.Fatal("registered program not found")
	}
	_ = h(nil)
	if !called {
		t.Error("wrong handler returned")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	b := Binary{Name: "webbot", Arch: "i386-linux", Version: "2.4", Payload: []byte{1, 2, 3}}
	name, arch, version, err := parseManifest(b.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	if name != "webbot" || arch != "i386-linux" || version != "2.4" {
		t.Errorf("parsed %q %q %q", name, arch, version)
	}
	if _, _, _, err := parseManifest("too|few"); err == nil {
		t.Error("bad manifest accepted")
	}
}

func TestPackUnpackBinaries(t *testing.T) {
	bc := briefcase.New()
	b1 := Binary{Name: "webbot", Arch: "sparc-sunos5", Version: "1", Payload: []byte("sparc image")}
	b2 := Binary{Name: "webbot", Arch: "i386-linux", Version: "1", Payload: []byte("x86 image")}
	PackBinaries(bc, b1, b2)

	got, err := UnpackBinaries(bc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("unpacked %d", len(got))
	}
	if got[0].Arch != "sparc-sunos5" || string(got[0].Payload) != "sparc image" {
		t.Errorf("first binary: %+v", got[0])
	}

	// Architecture selection (§5: "ag_exec extracts the binary matching
	// the architecture of the local machine").
	sel, err := SelectBinary(got, "i386-linux")
	if err != nil || string(sel.Payload) != "x86 image" {
		t.Errorf("SelectBinary = %+v, %v", sel, err)
	}
	if _, err := SelectBinary(got, "vax-vms"); !errors.Is(err, ErrNoBinaryForArch) {
		t.Errorf("missing arch err = %v", err)
	}
}

func TestUnpackBinariesErrors(t *testing.T) {
	bc := briefcase.New()
	if _, err := UnpackBinaries(bc); err == nil {
		t.Error("no BINARIES folder accepted")
	}
	bc.Ensure(briefcase.FolderBinaries).AppendString("manifest-without-payload")
	if _, err := UnpackBinaries(bc); err == nil {
		t.Error("odd element count accepted")
	}
	f := bc.Ensure(briefcase.FolderBinaries)
	f.Clear()
	f.AppendString("not-a-manifest", "payload")
	if _, err := UnpackBinaries(bc); err == nil {
		t.Error("malformed manifest accepted")
	}
}

func TestBinaryStoreExecute(t *testing.T) {
	var store BinaryStore
	ran := false
	img := SyntheticImage("webbot", "sparc-sunos5", "1.0", 1024)
	store.Deploy(Binary{
		Name: "webbot", Arch: "sparc-sunos5", Version: "1.0",
		Payload: img,
		Handler: func(*agent.Context) error { ran = true; return nil },
	})

	// Identical carried image executes.
	h, err := store.Execute(Binary{Name: "webbot", Arch: "sparc-sunos5", Payload: img})
	if err != nil {
		t.Fatal(err)
	}
	_ = h(nil)
	if !ran {
		t.Error("deployed handler not returned")
	}

	// Tampered image is rejected.
	bad := append([]byte{}, img...)
	bad[10] ^= 0xFF
	if _, err := store.Execute(Binary{Name: "webbot", Arch: "sparc-sunos5", Payload: bad}); !errors.Is(err, ErrBinaryMismatch) {
		t.Errorf("tampered image err = %v", err)
	}
	// Unknown binary is rejected.
	if _, err := store.Execute(Binary{Name: "ghost", Arch: "sparc-sunos5"}); !errors.Is(err, ErrNotDeployed) {
		t.Errorf("unknown binary err = %v", err)
	}
}

func TestSyntheticImageDeterministic(t *testing.T) {
	a := SyntheticImage("webbot", "sparc", "1.0", 4096)
	b := SyntheticImage("webbot", "sparc", "1.0", 4096)
	if !bytes.Equal(a, b) {
		t.Error("same inputs, different images")
	}
	c := SyntheticImage("webbot", "sparc", "1.1", 4096)
	if bytes.Equal(a, c) {
		t.Error("different version, same image")
	}
	d := SyntheticImage("webbot", "i386", "1.0", 4096)
	if bytes.Equal(a, d) {
		t.Error("different arch, same image")
	}
	if len(SyntheticImage("x", "y", "z", 100)) != 100 {
		t.Error("wrong image size")
	}
	if len(SyntheticImage("x", "y", "z", 0)) != 0 {
		t.Error("zero size not honored")
	}
}

// TestSyntheticImagePinned holds the generator to the bytes every
// deployed store and carried binary already agree on: the images of
// mwWebbot/x86/1.0 at four sizes, full, partial and empty last block.
func TestSyntheticImagePinned(t *testing.T) {
	for _, c := range []struct {
		size int
		sum  string
	}{
		{64 << 10, "fd1cf76266046310735e31569791a4f6f3d4e1b9a2e1dd094a17b2ea5ece0080"},
		{100, "75fbdbeaf74499a43ba3ffd1aab7a7df2df80f2aedf4ec5d92962bf68e37a354"},
		{33, "6f8ce5fde51d33002aa0afb2ab01f909c66fce00382f17b537d6d48fc14ddd14"},
		{0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	} {
		sum := sha256.Sum256(SyntheticImage("mwWebbot", "x86", "1.0", c.size))
		if got := hex.EncodeToString(sum[:]); got != c.sum {
			t.Errorf("%d-byte image: sha256 %s, want %s", c.size, got, c.sum)
		}
	}
}

// TestSyntheticImageAllocs: a memo hit costs nothing and lends the image
// the miss built.
func TestSyntheticImageAllocs(t *testing.T) {
	img := SyntheticImage("mwWebbot", "x86", "1.0", 64<<10)
	if n := testing.AllocsPerRun(20, func() {
		if hit := SyntheticImage("mwWebbot", "x86", "1.0", 64<<10); &hit[0] != &img[0] {
			t.Fatal("a memo hit returned a fresh image")
		}
	}); n != 0 {
		t.Errorf("SyntheticImage: %.0f allocs per memo hit, want 0", n)
	}
}

// TestSyntheticImageMemoBounded: once the memo holds its bound, a miss
// is built and returned but not kept, so requests naming ever new
// programs cannot grow it.
func TestSyntheticImageMemoBounded(t *testing.T) {
	defer imageBytes.Store(imageBytes.Swap(maxImageBytes))
	a := SyntheticImage("unkept", "x86", "1.0", 64)
	b := SyntheticImage("unkept", "x86", "1.0", 64)
	if _, kept := images.Load(imageKey{"unkept", "x86", "1.0", 64}); kept || &a[0] == &b[0] {
		t.Error("a miss past the bound was kept")
	}
	if !bytes.Equal(a, b) {
		t.Error("two builds of one image differ")
	}
}

func TestPropSyntheticImageInjective(t *testing.T) {
	f := func(a, b uint8) bool {
		n1 := "p" + string(rune('a'+a%16))
		n2 := "p" + string(rune('a'+b%16))
		i1 := SyntheticImage(n1, "arch", "1", 256)
		i2 := SyntheticImage(n2, "arch", "1", 256)
		return (n1 == n2) == bytes.Equal(i1, i2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
