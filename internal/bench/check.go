package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Encode renders a baseline document the one way the committed
// BENCH_*.json files are written: two-space indent, one field per line,
// trailing newline.
func Encode(doc any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, fmt.Errorf("bench: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Check is the regression gate: doc, encoded, must equal the committed
// baseline at path byte for byte. It returns one "path:line: baseline …
// got …" entry per differing line (none means the gate passes) and an
// error when the baseline cannot be read or doc cannot be encoded.
func Check(path string, doc any) ([]string, error) {
	baseline, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: baseline: %w", err)
	}
	fresh, err := Encode(doc)
	if err != nil {
		return nil, err
	}
	if bytes.Equal(baseline, fresh) {
		return nil, nil
	}
	base, cur := strings.Split(string(baseline), "\n"), strings.Split(string(fresh), "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<absent>"
	}
	var diffs []string
	for i := 0; i < len(base) || i < len(cur); i++ {
		if b, c := line(base, i), line(cur, i); b != c {
			diffs = append(diffs, fmt.Sprintf("%s:%d: baseline %s got %s",
				path, i+1, strings.TrimSpace(b), strings.TrimSpace(c)))
		}
	}
	return diffs, nil
}
