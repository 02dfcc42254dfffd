package uri

import (
	"errors"
	"strings"
	"testing"
)

// mustURI parses a target URI or fails the test.
func mustURI(t *testing.T, s string) URI {
	t.Helper()
	u, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return u
}

// TestPatternMatchTable is the pattern matcher's behavior spec: one row
// per semantic rule, including the adversarial near-misses a lazy
// matcher would get wrong.
func TestPatternMatchTable(t *testing.T) {
	tests := []struct {
		name    string
		pattern string
		target  string
		want    bool
	}{
		// Bare "**" matches everything.
		{"all matches plain name", "**", "ag_fs", true},
		{"all matches full uri", "**", "tacoma://cl2.cs.uit.no:27017/tacoma@cl2.cs.uit.no/vm_c:933821661", true},
		{"all matches empty-principal form", "**", "tacoma://h//vm_c", true},

		// Literal name, no host/principal slots: unconstrained elsewhere.
		{"name literal hit", "ag_fs", "ag_fs", true},
		{"name literal miss", "ag_fs", "ag_fsx", false},
		{"no host slot matches any host", "ag_fs", "tacoma://anywhere.example/ag_fs", true},
		{"no principal slot matches any principal", "ag_fs", "tacoma://h/tacoma@h/ag_fs", true},
		{"no instance glob matches instanced", "ag_fs", "ag_fs:2a", true},
		{"no instance glob matches uninstanced", "ag_fs", "ag_fs", true},

		// '*' inside one component.
		{"star prefix", "vm_*", "vm_c", true},
		{"star prefix miss", "vm_*", "ag_fs", false},
		{"star matches empty run", "vm_*", "vm_", true},
		{"star both ends", "*fire*", "ag_firewall", true},
		{"two stars one component", "a*b*c", "aXbYc", true},
		{"two stars need order", "a*b*c", "acb", false},
		{"star does not cross principal slash", "tac*", "tacoma://h/tac/oma", false},

		// "**" in the agent-id position: any name, any instance.
		{"idAll any name", "tourist/**", "tourist/anything:ff", true},
		{"idAll still checks principal", "tourist/**", "other/anything", false},

		// Principal slot, including the present-but-empty form.
		{"principal literal", "tacoma@cl2.cs.uit.no/ag_cron", "tacoma://cl2.cs.uit.no/tacoma@cl2.cs.uit.no/ag_cron", true},
		{"principal glob", "tourist*/ag_fs", "tourist42/ag_fs", true},
		{"empty principal pins empty", "tacoma://h//vm_c", "tacoma://h//vm_c", true},
		{"empty principal rejects nonempty", "tacoma://h//vm_c", "tacoma://h/tacoma@h/vm_c", false},
		{"star principal accepts empty", "*/vm_c", "tacoma://h//vm_c", true},
		{"star principal accepts nonempty", "*/vm_c", "tacoma://h/anyone/vm_c", true},

		// Host slot: case-insensitive like DNS, literal port, default port.
		{"host literal", "tacoma://cl2.cs.uit.no/ag_fs", "tacoma://cl2.cs.uit.no/ag_fs", true},
		{"host folds case", "tacoma://CL2.CS.UIT.NO/ag_fs", "tacoma://cl2.cs.uit.no/ag_fs", true},
		{"host target case folds too", "tacoma://cl2.cs.uit.no/ag_fs", "tacoma://CL2.cs.UIT.no/ag_fs", true},
		{"host suffix glob", "tacoma://*.uit.no/ag_fs", "tacoma://cl2.cs.uit.no/ag_fs", true},
		{"host suffix glob miss", "tacoma://*.uit.no/ag_fs", "tacoma://cl2.cs.uit.nope/ag_fs", false},
		{"host glob does not cross port", "tacoma://h:27017/ag_fs", "tacoma://h:27018/ag_fs", false},
		{"pattern port vs default port", "tacoma://h:27017/ag_fs", "tacoma://h/ag_fs", true},
		{"pattern without port matches any port", "tacoma://h/ag_fs", "tacoma://h:40000/ag_fs", true},
		{"host slot rejects other host", "tacoma://h1/ag_fs", "tacoma://h2/ag_fs", false},
		{"host-scoped all matches empty principal", "tacoma://h/**", "tacoma://h//vm_go", true},
		{"host-scoped all matches nonempty principal", "tacoma://h/**", "tacoma://h/tourist/walker:2a", true},
		{"host-scoped all rejects other host", "tacoma://h/**", "tacoma://h2//vm_go", false},

		// Principal case sensitivity (unlike hosts).
		{"principal is case-sensitive", "Tourist/ag_fs", "tourist/ag_fs", false},
		{"name is case-sensitive", "AG_fs", "ag_fs", false},

		// Instance globs match the lowercase-hex rendering.
		{"instance literal hex", "vm_c:933821661", "vm_c:933821661", true},
		{"instance literal miss", "vm_c:933821661", "vm_c:933821662", false},
		{"instance glob", "vm_c:9*", "vm_c:933821661", true},
		{"instance star", "vm_c:*", "vm_c:2a", true},
		{"instance glob needs an instance", "vm_c:*", "vm_c", false},
		{"instance hex is lowercase", "vm_c:2a", "vm_c:2A", true}, // URI parse lowercases hex

		// Adversarial near-misses for the backtracking matcher.
		{"backtrack across repeats", "*ab", "aab", true},
		{"backtrack miss", "*ab", "aba", false},
		{"many stars still linear", "*a*a*a*a*a", "aaaa", false},
		{"many stars hit", "*a*a*a*a*a", "aaaaa", true},
		{"collapsed double star is single star", "a**b", "aXXb", true},
		{"collapsed double star no cross-component power", "tourist/a**b", "tourist/a/b", false},
		{"star name accepts empty name", "*", ":ff", true},
		{"trailing star after match", "ag_fs*", "ag_fs", true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, err := ParsePattern(tt.pattern)
			if err != nil {
				t.Fatalf("ParsePattern(%q): %v", tt.pattern, err)
			}
			u := mustURI(t, tt.target)
			if got := p.Match(u); got != tt.want {
				t.Errorf("Pattern(%q).Match(%q) = %v, want %v", tt.pattern, tt.target, got, tt.want)
			}
			if p.String() != tt.pattern {
				t.Errorf("String() = %q, want source text %q", p.String(), tt.pattern)
			}
		})
	}
}

// TestParsePatternErrors: hostile or malformed pattern text must fail
// with ErrParse and never panic.
func TestParsePatternErrors(t *testing.T) {
	bad := []string{
		"",
		"tacoma://h",                    // missing '/' after hostport
		"tacoma:///ag_fs",               // empty host glob
		"tacoma://h:0/ag_fs",            // port out of range
		"tacoma://h:99999/ag_fs",        // port out of range
		"tacoma://h:x/ag_fs",            // non-numeric port
		"tacoma://h^host/ag_fs",         // bad host rune
		"bad^principal/ag_fs",           // bad principal rune
		"ag fs",                         // space in name glob
		"ag_fs:",                        // empty instance glob
		"ag_fs:zz!",                     // bad instance rune
		"**:5",                          // '**' takes no instance glob
		strings.Repeat("a", 513),        // longer than MaxPatternLen
		"x/" + strings.Repeat("a", 300), // component over MaxGlobLen
	}
	for _, s := range bad {
		if _, err := ParsePattern(s); !errors.Is(err, ErrParse) {
			t.Errorf("ParsePattern(%q) = %v, want ErrParse", s, err)
		}
	}
}

// refGlob is the obviously-correct recursive glob matcher the iterative
// one is checked against.
func refGlob(pat, s string) bool {
	if pat == "" {
		return s == ""
	}
	if pat[0] == '*' {
		for i := 0; i <= len(s); i++ {
			if refGlob(pat[1:], s[i:]) {
				return true
			}
		}
		return false
	}
	return s != "" && pat[0] == s[0] && refGlob(pat[1:], s[1:])
}

// TestMatchGlobDifferential sweeps the iterative matcher against the
// recursive reference over a dense small alphabet, where every
// backtracking edge case lives.
func TestMatchGlobDifferential(t *testing.T) {
	alphabet := []byte("a*b")
	var patterns, subjects []string
	var gen func(prefix []byte, depth int, out *[]string, syms []byte)
	gen = func(prefix []byte, depth int, out *[]string, syms []byte) {
		*out = append(*out, string(prefix))
		if depth == 0 {
			return
		}
		for _, c := range syms {
			gen(append(prefix, c), depth-1, out, syms)
		}
	}
	gen(nil, 4, &patterns, alphabet)
	gen(nil, 4, &subjects, []byte("ab"))
	n := 0
	for _, p := range patterns {
		for _, s := range subjects {
			if got, want := MatchGlob(p, s), refGlob(p, s); got != want {
				t.Fatalf("MatchGlob(%q, %q) = %v, reference says %v", p, s, want, got)
			}
			n++
		}
	}
	if n < 1000 {
		t.Fatalf("differential sweep too small: %d cases", n)
	}
}

// FuzzPatternMatch: arbitrary pattern text either fails to parse or
// produces a matcher that agrees with the recursive reference on the
// glob components and never panics on arbitrary targets.
func FuzzPatternMatch(f *testing.F) {
	f.Add("**", "ag_fs")
	f.Add("tacoma://*.uit.no:27017/tour*/vm_*:9*", "tacoma://cl2.cs.uit.no/tourist/vm_c:933821661")
	f.Add("a**b", "aXb")
	f.Add("tacoma://h//vm_c", "tacoma://h//vm_c")
	f.Fuzz(func(t *testing.T, pat, target string) {
		p, err := ParsePattern(pat)
		if err != nil {
			return
		}
		u, err := Parse(target)
		if err != nil {
			return
		}
		_ = p.Match(u) // must not panic, must terminate
	})
}

// TestMatchGlobAllocs: the hot-path matcher must not allocate.
func TestMatchGlobAllocs(t *testing.T) {
	p := MustPattern("tacoma://*.uit.no/tour*/vm_*:9*")
	u := mustURI(t, "tacoma://cl2.cs.uit.no/tourist/vm_c:933821661")
	allocs := testing.AllocsPerRun(100, func() {
		if !p.Match(u) {
			t.Fatal("expected match")
		}
	})
	if allocs != 0 {
		t.Errorf("Pattern.Match allocates %v per run, want 0", allocs)
	}
}
