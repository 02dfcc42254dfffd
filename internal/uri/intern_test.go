package uri

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// sameAsParse fails unless a and err are what Parse(text) returns.
func sameAsParse(t *testing.T, step, text string, a Addr, err error) {
	t.Helper()
	u, perr := Parse(text)
	if a.Text != text || a.URI != u || (err == nil) != (perr == nil) || (err != nil && err.Error() != perr.Error()) {
		t.Fatalf("%s %q: got (%q, %+v, %v), Parse gives (%+v, %v)", step, text, a.Text, a.URI, err, u, perr)
	}
	if err == nil && string(a.Bytes()) != text {
		t.Fatalf("%s %q: Bytes() = %q", step, text, a.Bytes())
	}
}

// entries lists the distinct addresses a table holds.
func (t *internTable) entries() map[string]bool {
	held := make(map[string]bool)
	for i := range t.sets {
		for w := range t.sets[i].ways {
			if e := t.sets[i].ways[w].Load(); e != nil {
				held[e.addr.Text] = true
			}
		}
	}
	return held
}

// FuzzParseBytes holds the table to Parse: on a miss, on the sighting
// that admits, and on a hit, through both entry points, the result is
// Parse's — URI, text and error.
func FuzzParseBytes(f *testing.F) {
	for _, s := range []string{
		"tacoma://cl2.cs.uit.no:27017//vm_c:933821661",
		"tacoma://cl2.cs.uit.no/tacoma@cl2.cs.uit.no/ag_cron",
		"tacomaproject/:933821661",
		"tacoma://127.0.0.1:40123/tenant1/echo",
		"ag_exec", "", "tacoma://", "a:", "tacoma://h:0/x", strings.Repeat("a", maxInternLen+1),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		text := string(b)
		if hashBytes(b) != hashString(text) {
			t.Fatalf("%q: the two forms hash apart", text)
		}
		_, perr := Parse(text)
		for _, form := range []string{"ParseBytes", "ParseString"} {
			var tab internTable
			for _, step := range []string{"miss", "admission", "hit"} {
				in := append([]byte(nil), b...)
				var a Addr
				var err error
				if form == "ParseBytes" {
					a, err = tab.parseBytes(in)
				} else {
					a, err = tab.parseString(string(in))
				}
				for i := range in {
					in[i] ^= 0xff // the result must not alias its input
				}
				sameAsParse(t, form+" "+step, text, a, err)
			}
			if held := tab.entries(); held[text] != (perr == nil && len(b) <= maxInternLen) {
				t.Fatalf("%s: %q held=%v after three sightings (parse error %v, %d bytes)", form, text, held[text], perr, len(b))
			}
		}
	})
}

func TestInternAdmitsOnSecondSighting(t *testing.T) {
	var tab internTable
	const addr = "tacoma://127.0.0.1:40123/tenant1/echo"
	if _, err := tab.parseBytes([]byte(addr)); err != nil {
		t.Fatal(err)
	}
	if len(tab.entries()) != 0 {
		t.Fatal("an address was admitted on its first sighting")
	}
	first, _ := tab.parseString(addr)
	if !tab.entries()[addr] || first.raw == nil {
		t.Fatal("an address was not admitted on its second sighting")
	}
	again, _ := tab.parseBytes([]byte(addr))
	if &again.raw[0] != &first.raw[0] {
		t.Fatal("a hit did not return the admitted entry")
	}
	if _, err := tab.parseString("tacoma://h:99999/x"); err == nil {
		t.Fatal("a bad port parsed")
	}
	if _, err := tab.parseString("tacoma://h:99999/x"); !errors.Is(err, ErrParse) {
		t.Fatalf("second sighting of a bad address: %v", err)
	}
	if len(tab.entries()) != 1 {
		t.Fatal("a parse error was cached")
	}
}

// TestInternHitAllocatesNothing: once admitted, an address costs no
// allocation through either entry point.
func TestInternHitAllocatesNothing(t *testing.T) {
	const addr = "tacoma://127.0.0.1:40123/tenant1/echo:2a"
	b := []byte(addr)
	for range 2 {
		if _, err := ParseBytes(b); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = ParseBytes(b) }); n != 0 {
		t.Errorf("ParseBytes hit allocates %.0f", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = ParseString(addr) }); n != 0 {
		t.Errorf("ParseString hit allocates %.0f", n)
	}
	if a, _ := ParseString(addr); a.raw == nil || testing.AllocsPerRun(100, func() { _ = a.Bytes() }) != 0 {
		t.Error("an interned address's Bytes allocates")
	}
}

// TestInternBounded floods one table with four times the addresses it
// holds, each sighted twice, then alternates two hot addresses that
// share a set: both stay, and neither evicts the other.
func TestInternBounded(t *testing.T) {
	var tab internTable
	const capacity = internSets * internWays
	for i := range 4 * capacity {
		s := fmt.Sprintf("tacoma://h%d:27017/p/agent:%x", i%97, i)
		for step := range 2 {
			a, err := tab.parseBytes([]byte(s))
			sameAsParse(t, fmt.Sprint("flood ", step), s, a, err)
		}
	}
	if n := len(tab.entries()); n > capacity || n < capacity/2 {
		t.Fatalf("flood left %d entries in a table of %d", n, capacity)
	}

	// Two addresses whose hashes pick the same set.
	hot := []string{"tacoma://front:27017/p/hot"}
	want := hashString(hot[0]) >> (64 - internSetBits)
	for i := 0; len(hot) < 2; i++ {
		if s := fmt.Sprintf("tacoma://front:27017/p/hot%d", i); hashString(s)>>(64-internSetBits) == want {
			hot = append(hot, s)
		}
	}
	hb := [][]byte{[]byte(hot[0]), []byte(hot[1])}
	for range 2 {
		for _, b := range hb {
			if _, err := tab.parseBytes(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() { _, _ = tab.parseBytes(hb[i%2]); i++ }); n != 0 {
		t.Errorf("two hot addresses in one set evict each other: %.1f allocations a lookup", n)
	}
	if held := tab.entries(); !held[hot[0]] || !held[hot[1]] {
		t.Error("a hot address is missing from its set")
	}
}

func TestInternOverLengthNeverRetained(t *testing.T) {
	var tab internTable
	long := "tacoma://h:27017/p/" + strings.Repeat("a", maxInternLen)
	for step := range 3 {
		a, err := tab.parseBytes([]byte(long))
		sameAsParse(t, fmt.Sprint("sighting ", step), long, a, err)
		if a.raw != nil {
			t.Fatal("an over-length address came back interned")
		}
	}
	if n := len(tab.entries()); n != 0 {
		t.Fatalf("an over-length address was retained: %d entries", n)
	}
	for i := range tab.sets {
		if tab.sets[i].tickets[0].Load() != 0 {
			t.Fatal("an over-length address took an admission ticket")
		}
	}
}

// TestInternConcurrent runs eight goroutines over one small address
// population, so admissions, evictions and hits race; run it under
// -race.
func TestInternConcurrent(t *testing.T) {
	var tab internTable
	addrs := make([]string, 64)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("tacoma://h%d:27017/p/agent:%x", i%5, i)
	}
	addrs[7] = "tacoma://h:0/bad"
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 4000 {
				s := addrs[(i*(g+1))%len(addrs)]
				var a Addr
				var err error
				if i%2 == 0 {
					a, err = tab.parseBytes([]byte(s))
				} else {
					a, err = tab.parseString(s)
				}
				u, perr := Parse(s)
				if a.Text != s || a.URI != u || (err == nil) != (perr == nil) {
					t.Errorf("goroutine %d: %q gave (%q, %v), want (%+v, %v)", g, s, a.Text, err, u, perr)
					return
				}
			}
		}()
	}
	wg.Wait()
}
