package briefcase

import (
	"bytes"
	"testing"
)

// fuzzSeedFrames are the corpus the fuzzer mutates from: valid encodes
// of representative briefcases, the deterministic corruptions the fault
// injector produces (mid and last byte flipped, as in
// simnet.corruptPayload and the faultfolders property tests), and
// hand-broken headers.
func fuzzSeedFrames() [][]byte {
	var frames [][]byte

	empty := New()
	frames = append(frames, empty.Encode())

	itinerary := New()
	h := itinerary.Ensure(FolderHosts)
	h.AppendString("tacoma://h1//vm_go")
	h.AppendString("tacoma://h2//vm_go")
	itinerary.SetString(FolderCode, "mw_webbot")
	itinerary.SetInt("DEPTH", 4)
	frames = append(frames, itinerary.Encode())

	nested := New()
	nested.Ensure("RESULTS").AppendString("h|http://h/x|http://h/|404|invalid")
	nested.Ensure("").Append([]byte{0, 0xff, 0x80})
	nested.SetString(FolderSysTarget, "alice/agent")
	frames = append(frames, nested.Encode())

	for _, base := range [][]byte{itinerary.Encode(), nested.Encode()} {
		damaged := append([]byte(nil), base...)
		damaged[len(damaged)/2] ^= 0xA5
		damaged[len(damaged)-1] ^= 0x5A
		frames = append(frames, damaged)
	}

	frames = append(frames,
		[]byte{},
		[]byte("TAX"),              // short magic
		[]byte("TAXA\x01\x00"),     // wrong magic
		[]byte("TAXB\x7f\x00"),     // unsupported version
		[]byte("TAXB\x01\xff\xff"), // folder-count varint runs off the end
	)
	// Well-formed but out of name order: accepted, re-encoded canonically.
	frames = append(frames, outOfOrderFrame())
	return frames
}

// FuzzDecode drives Decode with arbitrary frames: it must never panic,
// anything it accepts must re-encode canonically (Encode∘Decode is the
// identity on the accepted set — the property signatures depend on),
// and the accepted briefcase must decode again to an equal value.
func FuzzDecode(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Decode(data)
		if err != nil {
			return // rejected input: the firewall audits and drops it
		}
		re := b.Encode()
		b2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encode of accepted frame rejected: %v", err)
		}
		if !b2.Equal(b) {
			t.Fatal("decode(encode(decode(x))) differs from decode(x)")
		}
		// The canonical encoding is a fixpoint: re-encoding the decoded
		// value must be deterministic and match EncodedSize.
		if len(re) != b.EncodedSize() {
			t.Fatalf("EncodedSize %d != len(Encode) %d", b.EncodedSize(), len(re))
		}
		if !bytes.Equal(re, b2.Encode()) {
			t.Fatal("Encode is not deterministic on equal briefcases")
		}
	})
}
