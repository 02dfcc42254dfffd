package bench

import (
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type checkPoint struct {
	Workers    int     `json:"workers"`
	MakespanMs float64 `json:"virtual_makespan_ms"`
	Pages      int     `json:"pages"`
}

type checkDoc struct {
	OK      bool         `json:"ok"`
	Results []checkPoint `json:"results"`
}

func checkBase() checkDoc {
	return checkDoc{OK: true, Results: []checkPoint{
		{Workers: 1, MakespanMs: 3968.149, Pages: 960},
		{Workers: 2, MakespanMs: 1985.277, Pages: 960},
	}}
}

// commitBaseline writes doc the way taxbench does and returns the path.
func commitBaseline(t *testing.T, doc any) string {
	t.Helper()
	data, err := Encode(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func mustCheck(t *testing.T, path string, doc any) []string {
	t.Helper()
	diffs, err := Check(path, doc)
	if err != nil {
		t.Fatal(err)
	}
	return diffs
}

func TestCheckIdenticalPasses(t *testing.T) {
	if diffs := mustCheck(t, commitBaseline(t, checkBase()), checkBase()); len(diffs) != 0 {
		t.Errorf("identical docs diff: %v", diffs)
	}
}

func TestCheckCatchesDeterministicDrift(t *testing.T) {
	path := commitBaseline(t, checkBase())
	cur := checkBase()
	cur.Results[1].Pages = 959
	diffs := mustCheck(t, path, cur)
	if len(diffs) != 1 {
		t.Fatalf("diffs = %v, want exactly 1", diffs)
	}
	// {, "ok", "results": [, {, three fields, }, {, two fields: line 12.
	if want := path + `:12: baseline "pages": 960 got "pages": 959`; diffs[0] != want {
		t.Errorf("diff = %q, want %q", diffs[0], want)
	}
	// The last ulp of a float is drift too: there is no tolerance band.
	cur = checkBase()
	cur.Results[0].MakespanMs = math.Nextafter(cur.Results[0].MakespanMs, 0)
	if diffs := mustCheck(t, path, cur); len(diffs) != 1 || !strings.Contains(diffs[0], ":6: ") {
		t.Errorf("one-ulp drift diffs = %v, want line 6", diffs)
	}
}

func TestCheckStructuralDrift(t *testing.T) {
	path := commitBaseline(t, checkBase())
	shorter := checkBase()
	shorter.Results = shorter.Results[:1]
	if diffs := mustCheck(t, path, shorter); len(diffs) == 0 || !strings.Contains(strings.Join(diffs, "\n"), "<absent>") {
		t.Errorf("array-length diffs = %v", diffs)
	}
	extraKey := struct {
		checkDoc
		Extra int `json:"extra"`
	}{checkBase(), 1}
	if diffs := mustCheck(t, path, extraKey); len(diffs) == 0 {
		t.Error("extra key accepted")
	}
	typeChange := map[string]any{"ok": "true", "results": checkBase().Results}
	if diffs := mustCheck(t, path, typeChange); len(diffs) != 1 || !strings.Contains(diffs[0], `:2: baseline "ok": true, got "ok": "true",`) {
		t.Errorf("type-change diffs = %v", diffs)
	}
}

func TestCheckInvalidJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_corrupt.json")
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if diffs := mustCheck(t, path, checkBase()); len(diffs) == 0 {
		t.Error("corrupt baseline accepted")
	}
	if _, err := Check(commitBaseline(t, checkBase()), math.NaN()); err == nil {
		t.Error("unencodable current accepted")
	}
}

func TestCheckMissingBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_missing.json")
	_, err := Check(path, checkBase())
	var perr *fs.PathError
	if !errors.As(err, &perr) || perr.Path != path || !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing baseline error = %v, want a PathError naming %s", err, path)
	}
}
