package uri

import "testing"

func BenchmarkParseFull(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse("tacoma://cl2.cs.uit.no:27017/tacoma@cl2/vm_c:933821661"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseBytesHit is BenchmarkParseFull's address read from bytes
// once the intern table holds it.
func BenchmarkParseBytesHit(b *testing.B) {
	addr := []byte("tacoma://cl2.cs.uit.no:27017/tacoma@cl2/vm_c:933821661")
	_, _ = ParseBytes(addr)
	_, _ = ParseBytes(addr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseBytes(addr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseLocal(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse("ag_exec"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkString(b *testing.B) {
	u := MustParse("tacoma://cl2.cs.uit.no:27018/alice/webbot:2a")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = u.String()
	}
}

func BenchmarkMatches(b *testing.B) {
	reg := MustParse("alice/webbot:2a")
	q := MustParse("webbot")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !reg.Matches(q) {
			b.Fatal("mismatch")
		}
	}
}
