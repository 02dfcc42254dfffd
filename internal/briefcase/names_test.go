package briefcase

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"tax/internal/intern"
)

// inFrame reports whether s's bytes lie inside frame.
func inFrame(s string, frame []byte) bool {
	if len(s) == 0 || len(frame) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(&frame[0]))
	return p >= lo && p < lo+uintptr(len(frame))
}

// TestNamesTableStaysBounded decodes a stream of 100,000 frames, each
// with fresh folder names and each decoded twice, so every name is
// admitted and then evicted; one frame in ten also carries a name over
// the table's length cap. Every decode equals the reference decode, and
// the table ends within its Sets × Ways entries of at most MaxLen bytes.
func TestNamesTableStaysBounded(t *testing.T) {
	const frames = 100_000
	for i := range frames {
		folders := []string{fmt.Sprintf("A%x", i), fmt.Sprintf("B%x", i), FolderSysTarget}
		if i%10 == 0 {
			folders = append(folders, fmt.Sprintf("L%x", i)+strings.Repeat("x", intern.MaxLen))
		}
		frame := frameOf(folders...)
		want, err := ReferenceDecode(frame)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			got, err := Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("frame %d: decode %v, reference %v", i, got, want)
			}
		}
		if i%10 == 0 && names.Holds(folders[3]) {
			t.Fatalf("frame %d: an over-length name was retained", i)
		}
	}
	if n := names.Len(); n > intern.Sets*intern.Ways {
		t.Fatalf("the names table holds %d entries, bound %d", n, intern.Sets*intern.Ways)
	}
}

// TestDecodedNamesNeverAliasFrame: on a name's first sighting, on the
// one that admits it, on a hit and past the length cap, a decoded
// folder name is never a slice of the frame, so it stays valid and
// unchanged whatever happens to the frame's buffer.
func TestDecodedNamesNeverAliasFrame(t *testing.T) {
	long := "LONG" + strings.Repeat("n", intern.MaxLen)
	folders := []string{"ALIASCHECK", FolderSysTarget, long}
	for step := range 3 {
		frame := frameOf(folders...)
		b := mustDecode(t, frame)
		for _, name := range b.Names() {
			if inFrame(name, frame) {
				t.Fatalf("sighting %d: folder name %.12q… aliases the frame", step, name)
			}
		}
		clear(frame)
		if got := b.Names(); got[0] != "ALIASCHECK" || got[1] != long || got[2] != FolderSysTarget {
			t.Fatalf("sighting %d: names changed with the frame: %.12q", step, got)
		}
	}
}

// TestDecodeSharedNamesConcurrently has eight goroutines decode frames
// whose names they share, beside one name of their own each, so hits,
// admissions and evictions in the names table race; run it under
// -race.
func TestDecodeSharedNamesConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2000 {
				frame := frameOf(FolderSysTarget, "BODY", fmt.Sprintf("G%d-%d", g, i%7), FolderSysSender)
				want, _ := ReferenceDecode(frame)
				got, err := Decode(frame)
				if err != nil || !got.Equal(want) {
					t.Errorf("goroutine %d: decode %v (%v), reference %v", g, got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
