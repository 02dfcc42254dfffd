package intern

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// built is what the test tables make of a key: the key and whether the
// table kept it.
type built struct {
	key  string
	kept bool
}

var errOdd = errors.New("odd key")

// countingTable builds a built, refuses keys starting with '!', and
// counts its builds.
func countingTable() (*Table[built], *int) {
	n := new(int)
	return New(func(key string, kept bool) (built, error) {
		*n++
		if strings.HasPrefix(key, "!") {
			return built{}, errOdd
		}
		return built{key, kept}, nil
	}), n
}

func tickets[V any](t *Table[V]) int {
	n := 0
	for i := range t.sets {
		for j := range t.sets[i].tickets {
			if t.sets[i].tickets[j].Load() != 0 {
				n++
			}
		}
	}
	return n
}

// TestHashFormsAgree: a key hashes alike as bytes and as a string, at
// every length across the eight-byte steps and the tail.
func TestHashFormsAgree(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for n := 0; n <= 80; n++ {
		for range 16 {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(r.Uint32())
			}
			if hashBytes(b) != hashString(string(b)) {
				t.Fatalf("%q: the two forms hash apart", b)
			}
		}
	}
}

func TestAdmitsOnSecondSighting(t *testing.T) {
	tab, builds := countingTable()
	const key = "tacoma://127.0.0.1:40123/tenant1/echo"
	if v, err := tab.Bytes([]byte(key)); err != nil || v != (built{key, false}) || *builds != 1 {
		t.Fatalf("first sighting: %+v, %v after %d builds", v, err, *builds)
	}
	if tab.Len() != 0 || tickets(tab) != 1 {
		t.Fatal("a key was admitted on its first sighting")
	}
	if v, err := tab.String(key); err != nil || v != (built{key, true}) || *builds != 3 {
		t.Fatalf("second sighting: %+v, %v after %d builds; want the kept build after a miss", v, err, *builds)
	}
	if !tab.Holds(key) || tab.Len() != 1 {
		t.Fatal("a key was not admitted on its second sighting")
	}
	for _, read := range []func() (built, error){
		func() (built, error) { return tab.Bytes([]byte(key)) },
		func() (built, error) { return tab.String(key) },
	} {
		if v, err := read(); err != nil || v != (built{key, true}) {
			t.Fatalf("hit: %+v, %v", v, err)
		}
	}
	if *builds != 3 {
		t.Fatalf("hits built %d more times", *builds-3)
	}
	for range 3 {
		if _, err := tab.String("!bad"); !errors.Is(err, errOdd) {
			t.Fatalf("a refused key: %v", err)
		}
	}
	if tab.Holds("!bad") || tab.Len() != 1 {
		t.Fatal("a build error was cached")
	}
}

// TestKeptKeyIsTheTables: whichever entry point admits a key, the key
// the table keeps and builds from is its own copy, never the caller's
// bytes or string.
func TestKeptKeyIsTheTables(t *testing.T) {
	for _, viaString := range []bool{false, true} {
		tab, _ := countingTable()
		in := []byte("tacoma://h:27017/p/agent:2a")
		s := string(in)
		var v built
		for range 2 {
			if viaString {
				v, _ = tab.String(s)
			} else {
				v, _ = tab.Bytes(in)
			}
		}
		if !v.kept {
			t.Fatal("second sighting did not admit")
		}
		p := unsafe.StringData(v.key)
		if p == unsafe.StringData(s) || p == &in[0] {
			t.Errorf("viaString=%v: the kept key aliases the caller's", viaString)
		}
	}
}

// TestHotPairSharesASet alternates two hot keys whose hashes pick the
// same set: both stay, and neither evicts the other.
func TestHotPairSharesASet(t *testing.T) {
	tab, builds := countingTable()
	hot := []string{"tacoma://front:27017/p/hot"}
	want := hashString(hot[0]) >> (64 - setBits)
	for i := 0; len(hot) < 2; i++ {
		if s := fmt.Sprintf("tacoma://front:27017/p/hot%d", i); hashString(s)>>(64-setBits) == want {
			hot = append(hot, s)
		}
	}
	hb := [][]byte{[]byte(hot[0]), []byte(hot[1])}
	for range 2 {
		for _, b := range hb {
			if _, err := tab.Bytes(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := *builds
	i := 0
	if n := testing.AllocsPerRun(100, func() { _, _ = tab.Bytes(hb[i%2]); i++ }); n != 0 {
		t.Errorf("two hot keys in one set evict each other: %.1f allocations a lookup", n)
	}
	if *builds != before || !tab.Holds(hot[0]) || !tab.Holds(hot[1]) {
		t.Error("a hot key is missing from its set")
	}
}

// TestOverLengthTakesNoTicket: a key over MaxLen is built at every
// sighting, never kept, and leaves no ticket that could push out a
// short key's.
func TestOverLengthTakesNoTicket(t *testing.T) {
	tab, builds := countingTable()
	long := strings.Repeat("a", MaxLen+1)
	for range 3 {
		if v, _ := tab.Bytes([]byte(long)); v.kept {
			t.Fatal("an over-length key came back kept")
		}
		if v, _ := tab.String(long); v.kept {
			t.Fatal("an over-length key came back kept")
		}
	}
	if *builds != 6 || tab.Len() != 0 || tickets(tab) != 0 {
		t.Fatalf("over-length key: %d builds, %d entries, %d tickets; want 6, 0, 0", *builds, tab.Len(), tickets(tab))
	}
}

// TestFloodStaysBounded sights four times as many keys as the table
// holds, twice each: the table holds at most Sets × Ways of them.
func TestFloodStaysBounded(t *testing.T) {
	tab, _ := countingTable()
	for i := range 4 * Sets * Ways {
		k := fmt.Appendf(nil, "F%05d", i)
		for range 2 {
			if v, err := tab.Bytes(k); err != nil || v.key != string(k) {
				t.Fatalf("%s: %+v, %v", k, v, err)
			}
		}
	}
	if n := tab.Len(); n > Sets*Ways || n < Sets*Ways/2 {
		t.Fatalf("flood left %d entries in a table of %d", n, Sets*Ways)
	}
}

// TestConcurrent runs eight goroutines over one small key population,
// so admissions, evictions and hits race; run it under -race.
func TestConcurrent(t *testing.T) {
	tab := New(func(key string, _ bool) (string, error) { return key, nil })
	keys := make([]string, 48)
	for i := range keys {
		keys[i] = fmt.Sprintf("K%d", i)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 4000 {
				k := keys[(i*(g+1))%len(keys)]
				var v string
				if i%2 == 0 {
					v, _ = tab.Bytes([]byte(k))
				} else {
					v, _ = tab.String(k)
				}
				if v != k {
					t.Errorf("goroutine %d: %q gave %q", g, k, v)
					return
				}
			}
		}()
	}
	wg.Wait()
}
