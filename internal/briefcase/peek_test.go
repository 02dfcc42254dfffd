package briefcase

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestPeekAgreesWithDecode drives Peek against randomized briefcases and
// checks every answer against the materializing decoder.
func TestPeekAgreesWithDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"ARGS", "HOSTS", "RESULTS", "_FRAME", "_KIND", "_SENDER", "_TARGET", "zz"}
	for iter := 0; iter < 500; iter++ {
		b := New()
		for _, n := range names {
			if rng.Intn(2) == 0 {
				continue
			}
			f := b.Ensure(n)
			for e := rng.Intn(4); e > 0; e-- {
				buf := make([]byte, rng.Intn(64))
				rng.Read(buf)
				f.Append(buf)
			}
		}
		frame := b.Encode()
		dec, err := Decode(frame)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		for _, n := range names {
			got, peekErr := Peek(frame, n)
			f, folderErr := dec.Folder(n)
			switch {
			case folderErr != nil:
				if !errors.Is(peekErr, ErrNoFolder) {
					t.Fatalf("folder %q absent but Peek returned (%q, %v)", n, got, peekErr)
				}
			case f.Len() == 0:
				if !errors.Is(peekErr, ErrNoElement) {
					t.Fatalf("folder %q empty but Peek returned (%q, %v)", n, got, peekErr)
				}
			default:
				want, _ := f.Element(0)
				if peekErr != nil || string(got) != string(want) {
					t.Fatalf("folder %q: Peek = (%q, %v), want %q", n, got, peekErr, want)
				}
			}
		}
	}
}

// TestPeekAliasesFrame checks the returned element is a window into the
// frame buffer, not a copy — the zero-copy property the relay depends on.
func TestPeekAliasesFrame(t *testing.T) {
	b := New()
	b.SetString("_TARGET", "tacoma://d/op/dst")
	b.Ensure("DATA").Append(make([]byte, 1024))
	frame := b.Encode()
	got, err := Peek(frame, "_TARGET")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("empty peek")
	}
	first := &got[0]
	within := false
	for i := range frame {
		if &frame[i] == first {
			within = true
			break
		}
	}
	if !within {
		t.Fatal("Peek copied the element instead of aliasing the frame")
	}
}

func TestPeekMalformed(t *testing.T) {
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"empty", nil, ErrCorrupt},
		{"short magic", []byte("TAX"), ErrCorrupt},
		{"bad magic", []byte("NOPE....."), ErrBadMagic},
		{"bad version", append([]byte("TAXB"), 0x7f), ErrBadVersion},
	}
	for _, tc := range cases {
		if _, err := Peek(tc.frame, "_TARGET"); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// A frame truncated mid-directory must report corruption, not absence.
	b := New()
	b.SetString("_TARGET", "tacoma://d/op/dst")
	frame := b.Encode()
	for cut := len(frame) - 1; cut > 5; cut-- {
		_, err := Peek(frame[:cut], "_TARGET")
		if err == nil {
			t.Fatalf("peek succeeded on %d-byte prefix of %d-byte frame", cut, len(frame))
		}
	}
}

// TestPeekAllocs pins the hot-path allocation count: zero for both a hit
// and a sorted-order early-exit miss.
func TestPeekAllocs(t *testing.T) {
	b := New()
	b.SetString("_KIND", "msg")
	b.SetString("_SENDER", "tacoma://a/op/src")
	b.SetString("_TARGET", "tacoma://d/op/dst")
	b.Ensure("DATA").Append(make([]byte, 512))
	frame := b.Encode()
	for _, tc := range []struct{ folder string }{{"_TARGET"}, {"_FRAME"}} {
		n := testing.AllocsPerRun(200, func() {
			_, _ = Peek(frame, tc.folder)
		})
		if n != 0 {
			t.Errorf("Peek(%q): %v allocs/op, want 0", tc.folder, n)
		}
	}
}

// TestAppendAliasEncodes checks an aliased element round-trips through the
// codec identically to a copied one.
func TestAppendAliasEncodes(t *testing.T) {
	payload := []byte("the payload bytes")
	ali, cop := New(), New()
	ali.Ensure("_FRAME").AppendAlias(payload)
	cop.Ensure("_FRAME").Append(payload)
	af, cf := ali.Encode(), cop.Encode()
	if string(af) != string(cf) {
		t.Fatalf("aliased encode differs from copied encode:\n%x\n%x", af, cf)
	}
	got, err := Peek(af, "_FRAME")
	if err != nil || string(got) != string(payload) {
		t.Fatalf("round trip: (%q, %v)", got, err)
	}
}

func ExamplePeek() {
	b := New()
	b.SetString(FolderSysTarget, "tacoma://d:27017/op/dst")
	frame := b.Encode()
	target, _ := Peek(frame, FolderSysTarget)
	fmt.Println(string(target))
	// Output: tacoma://d:27017/op/dst
}

// TestFolderPeek: Folder.Peek reads the i-th element as Element does,
// without a copy: on a decoded briefcase it aliases the frame, and
// once the folder is loaded a read allocates nothing.
func TestFolderPeek(t *testing.T) {
	b := New()
	b.Ensure("ROWS").AppendString("alpha", "", "gamma")
	frame := b.Encode()
	d, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := d.Folder("ROWS")
	for i := 0; i < f.Len(); i++ {
		e, _ := f.Element(i)
		if got := f.Peek(i); string(got) != string(e) {
			t.Fatalf("Peek(%d) = %q, Element(%d) = %q", i, got, i, e)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = f.Peek(2) }); n != 0 {
		t.Fatalf("Peek: %v allocs, want 0", n)
	}
	at := bytes.Index(frame, []byte("gamma"))
	frame[at] = 'G'
	if got := string(f.Peek(2)); got != "Gamma" {
		t.Fatalf("Peek(2) after the frame changed = %q, want the frame's bytes", got)
	}
}
