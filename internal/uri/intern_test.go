package uri

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"tax/internal/intern"
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

// FuzzParseBytes holds the table to Parse: on a miss, on the sighting
// that admits, and on a hit, through both entry points, the result is
// Parse's — URI, text and error.
func FuzzParseBytes(f *testing.F) {
	for _, s := range []string{
		"tacoma://cl2.cs.uit.no:27017//vm_c:933821661",
		"tacoma://cl2.cs.uit.no/tacoma@cl2.cs.uit.no/ag_cron",
		"tacomaproject/:933821661",
		"tacoma://127.0.0.1:40123/tenant1/echo",
		"ag_exec", "", "tacoma://", "a:", "tacoma://h:0/x", strings.Repeat("a", intern.MaxLen+1),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		text := string(b)
		_, perr := Parse(text)
		for _, form := range []string{"ParseBytes", "ParseString"} {
			tab := newTable()
			for _, step := range []string{"miss", "admission", "hit"} {
				in := append([]byte(nil), b...)
				var a Addr
				var err error
				if form == "ParseBytes" {
					a, err = tab.Bytes(in)
				} else {
					a, err = tab.String(string(in))
				}
				for i := range in {
					in[i] ^= 0xff // the result must not alias its input
				}
				sameAsParse(t, form+" "+step, text, a, err)
			}
			if held := tab.Holds(text); held != (perr == nil && len(b) <= intern.MaxLen) {
				t.Fatalf("%s: %q held=%v after three sightings (parse error %v, %d bytes)", form, text, held, perr, len(b))
			}
		}
	})
}

func TestInternAdmitsOnSecondSighting(t *testing.T) {
	tab := newTable()
	const addr = "tacoma://127.0.0.1:40123/tenant1/echo"
	if _, err := tab.Bytes([]byte(addr)); err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 0 {
		t.Fatal("an address was admitted on its first sighting")
	}
	first, _ := tab.String(addr)
	if !tab.Holds(addr) || first.raw == nil {
		t.Fatal("an address was not admitted on its second sighting")
	}
	again, _ := tab.Bytes([]byte(addr))
	if &again.raw[0] != &first.raw[0] {
		t.Fatal("a hit did not return the admitted entry")
	}
	if _, err := tab.String("tacoma://h:99999/x"); err == nil {
		t.Fatal("a bad port parsed")
	}
	if _, err := tab.String("tacoma://h:99999/x"); !errors.Is(err, ErrParse) {
		t.Fatalf("second sighting of a bad address: %v", err)
	}
	if tab.Len() != 1 {
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
// holds, each sighted twice: every answer is Parse's, and the table
// stays within its shape. That two hot addresses sharing a set both
// stay is internal/intern's TestHotPairSharesASet.
func TestInternBounded(t *testing.T) {
	tab := newTable()
	const capacity = intern.Sets * intern.Ways
	for i := range 4 * capacity {
		s := fmt.Sprintf("tacoma://h%d:27017/p/agent:%x", i%97, i)
		for step := range 2 {
			a, err := tab.Bytes([]byte(s))
			sameAsParse(t, fmt.Sprint("flood ", step), s, a, err)
		}
	}
	if n := tab.Len(); n > capacity || n < capacity/2 {
		t.Fatalf("flood left %d entries in a table of %d", n, capacity)
	}
}

// TestInternOverLengthNeverRetained: an address over intern.MaxLen is
// parsed at every sighting and never kept. That it takes no admission
// ticket either is internal/intern's TestOverLengthTakesNoTicket.
func TestInternOverLengthNeverRetained(t *testing.T) {
	tab := newTable()
	long := "tacoma://h:27017/p/" + strings.Repeat("a", intern.MaxLen)
	for step := range 3 {
		a, err := tab.Bytes([]byte(long))
		sameAsParse(t, fmt.Sprint("sighting ", step), long, a, err)
		if a.raw != nil {
			t.Fatal("an over-length address came back interned")
		}
	}
	if n := tab.Len(); n != 0 {
		t.Fatalf("an over-length address was retained: %d entries", n)
	}
}

// TestInternConcurrent runs eight goroutines over one small address
// population, so admissions, evictions and hits race; run it under
// -race.
func TestInternConcurrent(t *testing.T) {
	tab := newTable()
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
					a, err = tab.Bytes([]byte(s))
				} else {
					a, err = tab.String(s)
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
