package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		Title:  "T",
		Note:   "a note",
		Header: []string{"col1", "c2"},
		Rows:   [][]string{{"a", "bbbb"}, {"cc", "d"}},
	}
	out := tbl.Format()
	for _, want := range []string{"== T ==", "a note", "col1", "bbbb"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table lacks %q:\n%s", want, out)
		}
	}
	// Columns align: every data line has the same prefix width up to the
	// second column.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	hdr := lines[2]
	if !strings.HasPrefix(hdr, "col1  ") {
		t.Errorf("header alignment: %q", hdr)
	}
}

// TestExperimentsClaimEveryBaseline holds the table to the tree: every
// BENCH_*.json committed at the repository root is written and gated by
// exactly one experiment, every File exists, and names are unique.
func TestExperimentsClaimEveryBaseline(t *testing.T) {
	const root = "../.."
	committed, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	claims := map[string]int{}
	names := map[string]bool{}
	for _, e := range Experiments {
		if names[e.Name] || e.Name == "all" {
			t.Errorf("experiment name %q is taken", e.Name)
		}
		names[e.Name] = true
		if e.File == "" {
			continue
		}
		claims[e.File]++
		if _, err := os.Stat(filepath.Join(root, e.File)); err != nil {
			t.Errorf("experiment %s: baseline not committed: %v", e.Name, err)
		}
	}
	for _, path := range committed {
		if n := claims[filepath.Base(path)]; n != 1 {
			t.Errorf("%s is claimed by %d experiments, want exactly 1", filepath.Base(path), n)
		}
	}
}

// TestBaselinesHoldNoAllocCounts keeps allocation counts out of the
// baselines: what a path allocates is a property of the package that
// pays it and is pinned in that package's Alloc tests, so a baseline key
// that records one (allocs_per_op, send_allocs_delta_per_op) pins the
// same number twice.
func TestBaselinesHoldNoAllocCounts(t *testing.T) {
	committed, err := filepath.Glob(filepath.Join("../..", "BENCH_*.json"))
	if err != nil || len(committed) == 0 {
		t.Fatalf("no committed baselines found: %v", err)
	}
	var walk func(file string, v any)
	walk = func(file string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				if strings.Contains(k, "allocs") {
					t.Errorf("%s: key %q records an allocation count; pin it in the owning package's test", filepath.Base(file), k)
				}
				walk(file, child)
			}
		case []any:
			for _, child := range v {
				walk(file, child)
			}
		}
	}
	for _, path := range committed {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		walk(path, doc)
	}
}

func TestMsFormatting(t *testing.T) {
	if got := ms(1500 * time.Microsecond); got != "1.5ms" {
		t.Errorf("ms = %q", got)
	}
	if got := ms(250 * time.Microsecond); got != "250.0µs" {
		t.Errorf("sub-ms = %q", got)
	}
}

func TestE1Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload")
	}
	t1, cmp1, err := E1()
	if err != nil {
		t.Fatal(err)
	}
	_, cmp2, err := E1()
	if err != nil {
		t.Fatal(err)
	}
	if cmp1.Stationary.ScanElapsed != cmp2.Stationary.ScanElapsed ||
		cmp1.Mobile.ScanElapsed != cmp2.Mobile.ScanElapsed {
		t.Errorf("E1 not deterministic: %v/%v vs %v/%v",
			cmp1.Stationary.ScanElapsed, cmp1.Mobile.ScanElapsed,
			cmp2.Stationary.ScanElapsed, cmp2.Mobile.ScanElapsed)
	}
	// The headline shape: mobile wins on the LAN, in the paper's band.
	sp := cmp1.SpeedupPercent()
	if sp < 5 || sp > 35 {
		t.Errorf("E1 speedup %.1f%% out of band", sp)
	}
	if len(t1.Rows) != 3 {
		t.Errorf("E1 table rows: %d", len(t1.Rows))
	}
}

func TestFigure3ShapesHold(t *testing.T) {
	tbl, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows: %v", tbl.Rows)
	}
	// The 7-step pipeline must cost more than either 1-step baseline.
	pipeline := tbl.Rows[0][1]
	if pipeline == "0.0µs" {
		t.Errorf("pipeline cost vanished: %v", tbl.Rows)
	}
}

func TestFirewallBypassShape(t *testing.T) {
	tbl, err := FirewallBypass()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows: %v", tbl.Rows)
	}
	// The bypass row must report strictly fewer firewall deliveries.
	through, err1 := strconv.Atoi(tbl.Rows[0][2])
	bypassed, err2 := strconv.Atoi(tbl.Rows[1][2])
	if err1 != nil || err2 != nil || bypassed >= through {
		t.Errorf("bypass did not reduce deliveries: %v", tbl.Rows)
	}
}

func TestBriefcaseDropShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload")
	}
	tbl, err := BriefcaseDrop()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows: %v", tbl.Rows)
	}
	dropBytes, err1 := strconv.Atoi(tbl.Rows[0][1])
	keepBytes, err2 := strconv.Atoi(tbl.Rows[1][1])
	if err1 != nil || err2 != nil || dropBytes >= keepBytes {
		t.Errorf("dropping did not shrink bytes: %v", tbl.Rows)
	}
}
