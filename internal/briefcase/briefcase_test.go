package briefcase

import (
	"bytes"
	"errors"
	"strconv"
	"testing"
)

func TestEnsureAndFolder(t *testing.T) {
	b := New()
	if _, err := b.Folder("X"); !errors.Is(err, ErrNoFolder) {
		t.Fatalf("Folder on empty briefcase: err = %v, want ErrNoFolder", err)
	}
	f := b.Ensure("X")
	if f.Name() != "X" {
		t.Errorf("Name() = %q, want X", f.Name())
	}
	again := b.Ensure("X")
	if again != f {
		t.Error("Ensure created a second folder for the same name")
	}
	got, err := b.Folder("X")
	if err != nil || got != f {
		t.Errorf("Folder(X) = %v, %v; want the ensured folder", got, err)
	}
}

func TestAppendCopiesCallerBuffer(t *testing.T) {
	b := New()
	f := b.Ensure("F")
	buf := []byte("hello")
	f.Append(buf)
	buf[0] = 'X'
	e, err := f.Element(0)
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "hello" {
		t.Errorf("element mutated through caller buffer: %q", e)
	}
}

func TestElementCloneIndependence(t *testing.T) {
	b := New()
	f := b.Ensure("F")
	f.AppendString("abc")
	e, _ := f.Element(0)
	e[0] = 'X'
	e2, _ := f.Element(0)
	if e2.String() != "abc" {
		t.Errorf("Element returned a live reference; got %q after mutation", e2)
	}
}

func TestRemoveSemantics(t *testing.T) {
	b := New()
	f := b.Ensure("F")
	f.AppendString("a", "b", "c")

	e, err := f.Remove(1)
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "b" {
		t.Errorf("Remove(1) = %q, want b", e)
	}
	if got := f.Strings(); got[0] != "a" || got[1] != "c" || len(got) != 2 {
		t.Errorf("after remove: %v", got)
	}
	if _, err := f.Remove(5); !errors.Is(err, ErrNoElement) {
		t.Errorf("Remove(5) err = %v, want ErrNoElement", err)
	}
	if _, err := f.Remove(-1); !errors.Is(err, ErrNoElement) {
		t.Errorf("Remove(-1) err = %v, want ErrNoElement", err)
	}
}

func TestPopItineraryIdiom(t *testing.T) {
	b := New()
	hosts := b.Ensure(FolderHosts)
	hosts.AppendString("tacoma://h1/", "tacoma://h2/")

	var visited []string
	for {
		e, ok := hosts.Pop()
		if !ok {
			break
		}
		visited = append(visited, e.String())
	}
	if len(visited) != 2 || visited[0] != "tacoma://h1/" || visited[1] != "tacoma://h2/" {
		t.Errorf("itinerary order: %v", visited)
	}
	if hosts.Len() != 0 {
		t.Errorf("folder not empty after popping all: %d", hosts.Len())
	}
}

func TestInsert(t *testing.T) {
	b := New()
	f := b.Ensure("F")
	f.AppendString("a", "c")
	if err := f.Insert(1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if got := f.Strings(); got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("after insert: %v", got)
	}
	if err := f.Insert(4, []byte("z")); !errors.Is(err, ErrNoElement) {
		t.Errorf("out-of-range insert err = %v", err)
	}
	if err := f.Insert(3, []byte("d")); err != nil {
		t.Fatalf("insert at end: %v", err)
	}
	if got := f.Strings()[3]; got != "d" {
		t.Errorf("insert at end gave %q", got)
	}
}

func TestDropShrinksSize(t *testing.T) {
	b := New()
	b.Ensure("DATA").Append(make([]byte, 1000))
	b.Ensure("KEEP").AppendString("x")
	before := b.Size()
	b.Drop("DATA")
	if b.Has("DATA") {
		t.Error("DATA still present after Drop")
	}
	if after := b.Size(); after >= before {
		t.Errorf("Size did not shrink: before %d after %d", before, after)
	}
	b.Drop("ABSENT") // must not panic
}

func TestNamesSorted(t *testing.T) {
	b := New()
	for _, n := range []string{"z", "a", "m"} {
		b.Ensure(n)
	}
	got := b.Names()
	want := []string{"a", "m", "z"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestCloneDeep(t *testing.T) {
	b := New()
	b.Ensure("F").AppendString("v1")
	c := b.Clone()
	c.Ensure("F").AppendString("v2")
	f, _ := b.Folder("F")
	if f.Len() != 1 {
		t.Errorf("clone mutation leaked into original: len %d", f.Len())
	}
	if !b.Equal(b.Clone()) {
		t.Error("briefcase not Equal to its own clone")
	}
}

func TestMergeConcatenates(t *testing.T) {
	a := New()
	a.Ensure("F").AppendString("1")
	a.Ensure("ONLY_A").AppendString("x")
	b := New()
	b.Ensure("F").AppendString("2")
	b.Ensure("ONLY_B").AppendString("y")

	a.Merge(b)
	f, _ := a.Folder("F")
	if got := f.Strings(); len(got) != 2 || got[0] != "1" || got[1] != "2" {
		t.Errorf("merged folder: %v", got)
	}
	if !a.Has("ONLY_B") || !a.Has("ONLY_A") {
		t.Error("merge lost a folder")
	}
}

func TestEqual(t *testing.T) {
	mk := func(fill func(*Briefcase)) *Briefcase {
		b := New()
		fill(b)
		return b
	}
	base := func(b *Briefcase) { b.Ensure("F").AppendString("a", "b") }
	tests := []struct {
		name string
		a, b *Briefcase
		want bool
	}{
		{"identical", mk(base), mk(base), true},
		{"different element", mk(base), mk(func(b *Briefcase) { b.Ensure("F").AppendString("a", "X") }), false},
		{"different count", mk(base), mk(func(b *Briefcase) { b.Ensure("F").AppendString("a") }), false},
		{"different folder", mk(base), mk(func(b *Briefcase) { b.Ensure("G").AppendString("a", "b") }), false},
		{"extra folder", mk(base), mk(func(b *Briefcase) { base(b); b.Ensure("G") }), false},
		{"both empty", New(), New(), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Errorf("Equal = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestScalarHelpers(t *testing.T) {
	b := New()
	b.SetString("S", "v")
	if got, ok := b.GetString("S"); !ok || got != "v" {
		t.Errorf("GetString = %q, %v", got, ok)
	}
	b.SetString("S", "w") // replace, not append
	f, _ := b.Folder("S")
	if f.Len() != 1 {
		t.Errorf("SetString appended instead of replacing: len %d", f.Len())
	}
	b.SetInt("N", -42)
	if got, ok := b.GetInt("N"); !ok || got != -42 {
		t.Errorf("GetInt = %d, %v", got, ok)
	}
	if _, ok := b.GetString("ABSENT"); ok {
		t.Error("GetString on absent folder reported ok")
	}
	if _, ok := b.GetInt("S"); ok {
		t.Error("GetInt on non-numeric folder reported ok")
	}
}

func TestSizeAccounting(t *testing.T) {
	b := New()
	if b.Size() != 0 {
		t.Errorf("empty size %d", b.Size())
	}
	b.Ensure("AB").Append(make([]byte, 10), make([]byte, 5))
	if got := b.Size(); got != 2+15 {
		t.Errorf("Size = %d, want 17", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	b := New()
	b.Ensure(FolderHosts).AppendString("tacoma://a/", "tacoma://b/")
	b.Ensure("DATA").Append([]byte{0, 1, 2, 255}, nil, []byte{})
	b.Ensure("EMPTY")
	b.SetString("_TARGET", "tacoma://x//ag:1")

	enc := b.Encode()
	if len(enc) != b.EncodedSize() {
		t.Errorf("EncodedSize = %d, len(Encode) = %d", b.EncodedSize(), len(enc))
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !b.Equal(got) {
		t.Errorf("round trip mismatch:\n in %v\nout %v", b, got)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	mk := func(order []string) *Briefcase {
		b := New()
		for _, n := range order {
			b.Ensure(n).AppendString(n + "-data")
		}
		return b
	}
	a := mk([]string{"x", "a", "m"})
	b := mk([]string{"m", "x", "a"})
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Error("encoding depends on insertion order")
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	valid := func() []byte {
		b := New()
		b.Ensure("F").AppendString("data")
		return b.Encode()
	}()

	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short magic", []byte("TA")},
		{"bad magic", []byte("XXXXrest")},
		{"truncated", valid[:len(valid)-2]},
		{"trailing garbage", append(append([]byte{}, valid...), 0xFF)},
		{"just magic", []byte("TAXB")},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.data); err == nil {
				t.Error("Decode accepted corrupt frame")
			}
		})
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	b := New()
	enc := b.Encode()
	enc[4] = 99 // version byte follows the 4-byte magic
	if _, err := Decode(enc); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestDecodeRejectsHugeCounts(t *testing.T) {
	// Hand-craft a frame claiming 2^40 folders.
	frame := []byte("TAXB")
	frame = append(frame, 1) // version
	// uvarint(2^40)
	frame = append(frame, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20)
	if _, err := Decode(frame); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsDuplicateFolder(t *testing.T) {
	frame := []byte("TAXB")
	frame = append(frame, 1, 2) // version 1, two folders
	for i := 0; i < 2; i++ {
		frame = append(frame, 1, 'F', 0) // name len 1, "F", zero elements
	}
	if _, err := Decode(frame); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsEmptyFolderName(t *testing.T) {
	frame := []byte("TAXB")
	frame = append(frame, 1, 1) // version 1, one folder
	frame = append(frame, 0, 0) // name len 0, zero elements
	if _, err := Decode(frame); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestStringSummary(t *testing.T) {
	b := New()
	b.Ensure("B").AppendString("xx")
	b.Ensure("A")
	got := b.String()
	want := "bc{A:0 B:1 (4B)}"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func BenchmarkEncode1KBx16(b *testing.B) {
	bc := New()
	for i := 0; i < 16; i++ {
		bc.Ensure("F" + strconv.Itoa(i)).Append(make([]byte, 1024))
	}
	b.SetBytes(int64(bc.EncodedSize()))
	b.ReportAllocs()
	for b.Loop() {
		_ = bc.Encode()
	}
}

func BenchmarkDecode1KBx16(b *testing.B) {
	bc := New()
	for i := 0; i < 16; i++ {
		bc.Ensure("F" + strconv.Itoa(i)).Append(make([]byte, 1024))
	}
	enc := bc.Encode()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
