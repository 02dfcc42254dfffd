package briefcase

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"
)

// frameOf hand-assembles a version-1 frame whose folders appear in the
// given order, each holding one element equal to its name — including
// orders and repeats the encoder never produces.
func frameOf(names ...string) []byte {
	frame := append([]byte("TAXB"), wireVersion)
	frame = binary.AppendUvarint(frame, uint64(len(names)))
	for _, n := range names {
		frame = binary.AppendUvarint(frame, uint64(len(n)))
		frame = append(frame, n...)
		frame = append(frame, 1)
		frame = binary.AppendUvarint(frame, uint64(len(n)))
		frame = append(frame, n...)
	}
	return frame
}

// outOfOrderFrame is a well-formed frame whose folders are not in name
// order. The encoder never writes one, but decoders have always
// accepted it.
func outOfOrderFrame() []byte { return frameOf("_TARGET", "BODY", "_SENDER", "ARGS") }

// TestDecodeCannotOverAllocate sends a frame that claims the maximum
// folder count in sixteen bytes: the pre-size is bounded by what the
// bytes could hold, so rejecting it costs under a kilobyte.
func TestDecodeCannotOverAllocate(t *testing.T) {
	frame := append([]byte("TAXB"), wireVersion)
	frame = binary.AppendUvarint(frame, MaxFolders-1)
	frame = append(frame, 1, 'a', 0, 1, 'b', 0, 1, 'c') // third folder cut short
	if len(frame) != 16 {
		t.Fatalf("frame is %d bytes, want 16", len(frame))
	}
	if _, err := Decode(frame); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, _ = Decode(frame)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
		t.Errorf("rejecting a 16-byte frame allocated %d bytes, want < 1 KiB", per)
	}
}

// TestDecodeAcceptsNonCanonicalOrder: an out-of-order frame decodes to
// what the reference decoder makes of it, and re-encodes canonically.
func TestDecodeAcceptsNonCanonicalOrder(t *testing.T) {
	frame := outOfOrderFrame()
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceDecode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("Decode = %v, ReferenceDecode = %v", got, want)
	}
	if names := got.Names(); !slices.IsSorted(names) {
		t.Errorf("Names() = %v, not sorted", names)
	}
	if v, ok := got.GetString("_SENDER"); !ok || v != "_SENDER" {
		t.Errorf("_SENDER = %q, %v", v, ok)
	}
	if !slices.Equal(got.Encode(), want.Encode()) {
		t.Error("out-of-order frame does not re-encode canonically")
	}
	crossCheck(t, frame)
}

// TestDecodeRejectsNonAdjacentDuplicate: a repeat the order check alone
// would not see, because another folder sits between the two.
func TestDecodeRejectsNonAdjacentDuplicate(t *testing.T) {
	if _, err := Decode(frameOf("B", "A", "B")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestDecodeDuplicateErrorsMatchReference: a duplicate is reported the
// way the reference decoder reports it — the first repeat in wire order,
// ahead of any damage later in the frame.
func TestDecodeDuplicateErrorsMatchReference(t *testing.T) {
	damaged := frameOf("B", "A", "B", "C")
	damaged = damaged[:len(damaged)-1] // C's element cut short
	for _, frame := range [][]byte{
		frameOf("B", "A", "B"),
		frameOf("B", "B", "A", "A"),
		frameOf("Z", "A", "Y", "A", "Z"),
		damaged,
		append(frameOf("B", "A", "B"), 0), // trailing byte after a duplicate
	} {
		crossCheck(t, frame)
	}
}

// TestDecodeReverseOrderScales decodes the largest frame the limits
// allow with its folders in reverse order. Sorting once is O(n log n);
// inserting each folder at its place would be quadratic, 16× slower
// again at this size than at a sixteenth of it.
func TestDecodeReverseOrderScales(t *testing.T) {
	reversed := func(n int) []byte {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("F%05d", n-i)
		}
		return frameOf(names...)
	}
	fastest := func(frame []byte) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			start := time.Now()
			b, err := Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
			runtime.KeepAlive(b)
		}
		return best
	}
	big, small := reversed(MaxFolders), reversed(MaxFolders/16)
	b, err := Decode(big)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != MaxFolders || !slices.IsSorted(b.Names()) {
		t.Fatalf("decoded %d folders, sorted %v", b.Len(), slices.IsSorted(b.Names()))
	}
	// n log n predicts a ratio of about 21; quadratic, about 256.
	if ratio := float64(fastest(big)) / float64(fastest(small)); ratio > 64 {
		t.Errorf("16× the folders took %.0f× the time", ratio)
	}
}

// TestFolderHeldAcrossDrop: Drop unlinks a folder but never recycles its
// slot, so a caller's *Folder keeps its elements, and re-creating the
// name makes a new folder.
func TestFolderHeldAcrossDrop(t *testing.T) {
	b := New()
	held := b.Ensure("X")
	held.AppendString("a", "b")
	single := b.Ensure("Y")
	single.AppendString("only")
	b.Drop("X")
	b.Drop("Y")
	for i := 0; i < 2*minChunk; i++ {
		b.Ensure(fmt.Sprintf("N%d", i)).AppendString("filler")
	}
	if got := held.Strings(); !slices.Equal(got, []string{"a", "b"}) {
		t.Errorf("held folder after Drop = %v", got)
	}
	if got := single.Strings(); !slices.Equal(got, []string{"only"}) {
		t.Errorf("held single-element folder after Drop = %v", got)
	}
	again := b.Ensure("X")
	if again == held || again.Len() != 0 {
		t.Errorf("Ensure after Drop returned the dropped folder (same %v, Len %d)", again == held, again.Len())
	}
}

// TestEnsureAfterDropBreaksStamp: a folder dropped and re-created under
// the same name, with the same mutation count, is a different folder, so
// the core stamp stops holding.
func TestEnsureAfterDropBreaksStamp(t *testing.T) {
	src := New()
	src.SetString(FolderCode, "code")
	b := mustDecode(t, src.Encode()) // CODE's mutation count is 0
	b.StampCore(b.CoreDigest(), "alice")
	if _, _, ok := b.CoreStamp(); !ok {
		t.Fatal("fresh stamp does not hold")
	}
	b.Drop(FolderCode)
	b.Ensure(FolderCode) // a new folder, also at mutation count 0
	if _, _, ok := b.CoreStamp(); ok {
		t.Error("stamp holds across Drop and Ensure of the same name")
	}
}

// TestMergeSelfDoubles: b.Merge(b) appends each folder to itself once —
// inline, heap and still-undecoded folders alike.
func TestMergeSelfDoubles(t *testing.T) {
	src := New()
	src.Ensure("LAZY").AppendString("l1", "l2")
	b := mustDecode(t, src.Encode())
	b.Ensure("MANY").AppendString("1", "2", "3")
	b.SetString("ONE", "x")
	b.Ensure("NONE")
	b.Merge(b)
	for name, want := range map[string][]string{
		"LAZY": {"l1", "l2", "l1", "l2"},
		"MANY": {"1", "2", "3", "1", "2", "3"},
		"ONE":  {"x", "x"},
		"NONE": {},
	} {
		f, err := b.Folder(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Strings(); !slices.Equal(got, want) {
			t.Errorf("%s after b.Merge(b) = %v, want %v", name, got, want)
		}
	}
	if b.Len() != 4 {
		t.Errorf("b.Merge(b) left %d folders, want 4", b.Len())
	}
}

// TestCloneOfDecodedSharesNothing mutates a clone of a decoded briefcase
// — folders still undecoded, decoded into their inline slot, and decoded
// onto the heap — and checks the original never sees it, and the other
// way round.
func TestCloneOfDecodedSharesNothing(t *testing.T) {
	src := New()
	src.SetString("ONE", "one")
	src.Ensure("MANY").AppendString("a", "b", "c")
	src.SetString("LAZY", "lazy")
	frame := src.Encode()

	mutate := func(b *Briefcase) {
		one, _ := b.Folder("ONE")
		if _, err := one.Remove(0); err != nil {
			t.Fatal(err)
		}
		one.AppendString("changed")
		many, _ := b.Folder("MANY")
		many.Pop()
		lazy, _ := b.Folder("LAZY")
		lazy.Append([]byte("more"))
		b.SetString("NEW", "n")
		b.Drop("MANY")
	}
	for _, mutateClone := range []bool{true, false} {
		orig := mustDecode(t, frame)
		orig.GetString("ONE") // decoded inline
		many, _ := orig.Folder("MANY")
		many.Strings() // decoded onto the heap; LAZY stays undecoded
		clone := orig.Clone()
		victim, other := orig, clone
		if mutateClone {
			victim, other = clone, orig
		}
		mutate(victim)
		if !other.Equal(mustDecode(t, frame)) {
			t.Errorf("mutating the %s changed the other: %v", map[bool]string{true: "clone", false: "original"}[mutateClone], other)
		}
		if victim.Equal(other) {
			t.Error("mutations did not take")
		}
	}
}

var sinkBriefcase *Briefcase

// TestBriefcaseStructuralAllocs pins the representation's allocation
// shape: an empty briefcase is one allocation, and decoding a k-folder
// frame costs the same three structural allocations (briefcase, folder
// chunk, folder list) whatever k is, beside one string per folder name.
func TestBriefcaseStructuralAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { sinkBriefcase = New() }); n != 1 {
		t.Errorf("New() costs %v allocations, want 1", n)
	}
	for _, k := range []int{1, 2, 5, 16, 300} {
		names := make([]string, k)
		for i := range names {
			names[i] = fmt.Sprintf("F%04d", i) // multi-byte: one allocation each
		}
		frame := frameOf(names...)
		n := testing.AllocsPerRun(100, func() { sinkBriefcase, _ = Decode(frame) })
		if structural := int(n) - k; structural != 3 {
			t.Errorf("decoding %d folders costs %v allocations: %d structural, want 3", k, n, structural)
		}
	}
	// The case-study briefcase: five folders, so a decode is the three
	// structural allocations and five names, and a pooled encode reuses
	// a warm buffer. Exact only with the collector paused and no race
	// detector, whose sync.Pool drops Puts at random.
	t.Run("case-study", func(t *testing.T) {
		if raceBuild {
			t.Skip("exact allocation counts do not hold under the race detector")
		}
		bc := caseStudyBriefcase()
		frame := bc.Encode()
		if len(frame) != 4949 {
			t.Fatalf("case-study frame is %d bytes, want 4949", len(frame))
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		encode := testing.AllocsPerRun(200, func() {
			_, release := bc.EncodePooled()
			release()
		})
		if encode != 0 {
			t.Errorf("EncodePooled of the case-study briefcase costs %v allocations, want 0", encode)
		}
		if n := testing.AllocsPerRun(200, func() { sinkBriefcase, _ = Decode(frame) }); n != 8 {
			t.Errorf("decoding the case-study briefcase costs %v allocations, want 8", n)
		}
	})
}

// caseStudyBriefcase is a webbot mid-crawl, sized after the case study:
// results for 120 pages beside its code, status, args and hosts.
func caseStudyBriefcase() *Briefcase {
	bc := New()
	bc.SetString(FolderCode, "webbot")
	bc.SetString(FolderStatus, "crawling depth=3")
	args := bc.Ensure(FolderArgs)
	args.AppendString("maxdepth=4")
	args.AppendString("maxpages=917")
	hosts := bc.Ensure(FolderHosts)
	for _, h := range []string{"tacoma://w2//vm_go", "tacoma://w3//vm_go", "tacoma://home//vm_go"} {
		hosts.AppendString(h)
	}
	results := bc.Ensure(FolderResults)
	for i := 0; i < 120; i++ {
		results.AppendString(fmt.Sprintf("/page-%03d.html|200|%5d bytes|links=%2d", i, 1024+i*17, i%23))
	}
	return bc
}
