// URI patterns for the policy layer.
//
// A Pattern matches agent URIs component-wise with shell-style globs:
// '*' matches any run of characters inside one component, and '**' in
// the agent-id position (or as the whole pattern) matches everything
// below that point. Components are matched independently — a glob never
// crosses a '/' or ':' boundary — so "tacoma://*.uit.no/*/vm_*" reads
// the way it looks: any host under .uit.no, any principal, any agent
// whose name starts with vm_.
//
// The grammar mirrors the figure-2 URI notation:
//
//	pattern    = "**" | [ "tacoma://" hostglob [":" port] "/" ] agpattern
//	agpattern  = [ principalglob "/" ] idpattern
//	idpattern  = "**" | nameglob [ ":" instglob ]
//
// Presence semantics: an absent slot is unconstrained (a pattern with no
// host part matches targets on every host; no ':' means any or no
// instance), while a present-but-empty glob matches only the empty
// component (the paper's double-slash form "tacoma://h//vm_c" pins the
// empty principal). Host globs compare ASCII case-insensitively, like
// DNS names; principals, names and instances are case-sensitive. The
// port, when given, is a literal and compares against the target's
// effective port.
package uri

import (
	"fmt"
	"strconv"
	"strings"
)

// MaxPatternLen bounds ParsePattern input; longer strings are rejected
// before any per-component work (hostile rule text stays cheap).
const MaxPatternLen = 512

// MaxGlobLen bounds a single glob component (ValidGlob).
const MaxGlobLen = 256

// Pattern is a compiled URI pattern. The zero value matches nothing
// useful; obtain Patterns from ParsePattern.
type Pattern struct {
	text string

	all bool // bare "**": matches every URI

	hasHost bool   // pattern carries a host part
	host    string // host glob (star runs collapsed)
	port    int    // 0 = any port

	hasPrincipal bool   // pattern carries a principal slot
	principal    string // principal glob

	idAll   bool   // agent-id position is "**": any name, any instance
	name    string // name glob
	hasInst bool   // pattern carries an instance glob
	inst    string // instance glob, matched against lowercase hex
}

// ParsePattern compiles a pattern string. Errors name the offending
// component; hostile input never panics and is bounded by MaxPatternLen.
func ParsePattern(s string) (Pattern, error) {
	if s == "" {
		return Pattern{}, fmt.Errorf("%w: empty pattern", ErrParse)
	}
	if len(s) > MaxPatternLen {
		return Pattern{}, fmt.Errorf("%w: pattern longer than %d bytes", ErrParse, MaxPatternLen)
	}
	p := Pattern{text: s}
	if s == "**" {
		p.all = true
		return p, nil
	}
	rest := s
	if strings.HasPrefix(rest, Scheme) {
		rest = rest[len(Scheme):]
		slash := strings.IndexByte(rest, '/')
		if slash < 0 {
			return Pattern{}, fmt.Errorf("%w: %q: missing '/' after hostport", ErrParse, s)
		}
		hostport := rest[:slash]
		rest = rest[slash+1:]
		host := hostport
		if colon := strings.LastIndexByte(hostport, ':'); colon >= 0 {
			host = hostport[:colon]
			pt, err := strconv.Atoi(hostport[colon+1:])
			if err != nil || pt <= 0 || pt > 65535 {
				return Pattern{}, fmt.Errorf("%w: %q: bad port %q", ErrParse, s, hostport[colon+1:])
			}
			p.port = pt
		}
		if host == "" {
			return Pattern{}, fmt.Errorf("%w: %q: empty host glob", ErrParse, s)
		}
		if !ValidGlob(host) {
			return Pattern{}, fmt.Errorf("%w: %q: bad host glob %q", ErrParse, s, host)
		}
		p.hasHost = true
		p.host = collapseStars(host)
	}
	if slash := strings.LastIndexByte(rest, '/'); slash >= 0 {
		pr := rest[:slash]
		rest = rest[slash+1:]
		if pr != "" && !ValidGlob(pr) {
			return Pattern{}, fmt.Errorf("%w: %q: bad principal glob %q", ErrParse, s, pr)
		}
		p.hasPrincipal = true
		p.principal = collapseStars(pr)
	}
	if rest == "**" {
		p.idAll = true
		return p, nil
	}
	name := rest
	if colon := strings.IndexByte(rest, ':'); colon >= 0 {
		name = rest[:colon]
		inst := rest[colon+1:]
		if inst == "" {
			return Pattern{}, fmt.Errorf("%w: %q: empty instance glob after ':'", ErrParse, s)
		}
		if !ValidGlob(inst) {
			return Pattern{}, fmt.Errorf("%w: %q: bad instance glob %q", ErrParse, s, inst)
		}
		p.hasInst = true
		p.inst = collapseStars(inst)
	}
	if name == "**" {
		return Pattern{}, fmt.Errorf("%w: %q: '**' takes no instance glob", ErrParse, s)
	}
	if name != "" && !ValidGlob(name) {
		return Pattern{}, fmt.Errorf("%w: %q: bad name glob %q", ErrParse, s, name)
	}
	p.name = collapseStars(name)
	return p, nil
}

// mustPattern is ParsePattern that panics on error; for tests and
// constants.
func mustPattern(s string) Pattern {
	p, err := ParsePattern(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String returns the pattern's source text.
func (p Pattern) String() string { return p.text }

// Match reports whether the pattern matches a target URI. A pattern with
// no host part matches regardless of the target's host; policy callers
// normalize local targets to the mediating host's name first so host
// globs see one canonical form. Match performs no allocation.
func (p Pattern) Match(u URI) bool {
	if p.all {
		return true
	}
	if p.hasHost {
		if !globMatch(p.host, u.Host, true) {
			return false
		}
		if p.port != 0 && u.EffectivePort() != p.port {
			return false
		}
	}
	if p.hasPrincipal && !globMatch(p.principal, u.Principal, false) {
		return false
	}
	if p.idAll {
		return true
	}
	if !globMatch(p.name, u.Name, false) {
		return false
	}
	if p.hasInst {
		if !u.HasInstance {
			return false
		}
		var buf [16]byte
		if !globMatchBytes(p.inst, strconv.AppendUint(buf[:0], u.Instance, 16)) {
			return false
		}
	}
	return true
}

// ValidGlob reports whether s is a well-formed glob component: at most
// MaxGlobLen bytes of name runes, '@' (principals embed host names after
// an '@'), or '*'. The empty string is a valid glob (it matches only the
// empty component).
func ValidGlob(s string) bool {
	if len(s) > MaxGlobLen {
		return false
	}
	for _, r := range s {
		if !isNameRune(r) && r != '*' && r != '@' {
			return false
		}
	}
	return true
}

// MatchGlob matches one component glob against a string: '*' matches any
// run of characters, everything else is literal. It performs no
// allocation and runs in O(len(pat)*len(s)) worst case with no recursion,
// so hostile patterns cannot blow the stack. Callers validate pat with
// ValidGlob first; MatchGlob itself accepts any bytes.
func MatchGlob(pat, s string) bool { return globMatch(collapseStars(pat), s, false) }

// collapseStars rewrites runs of '*' to a single star, so the matcher's
// backtracking is linear in the pattern and "a**b" means "a*b" anywhere a
// bare "**" is not special.
func collapseStars(s string) string {
	if !strings.Contains(s, "**") {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s))
	prevStar := false
	for i := 0; i < len(s); i++ {
		if s[i] == '*' {
			if prevStar {
				continue
			}
			prevStar = true
		} else {
			prevStar = false
		}
		sb.WriteByte(s[i])
	}
	return sb.String()
}

// globMatch is the iterative two-pointer glob matcher (star/mark
// backtracking). fold makes ASCII letters compare case-insensitively
// (host globs). Patterns are ASCII (ValidGlob), so byte-wise comparison
// is UTF-8 safe: an ASCII pattern byte never equals a continuation byte.
func globMatch(pat, s string, fold bool) bool {
	px, sx := 0, 0
	starPx, starSx := -1, 0
	for sx < len(s) {
		if px < len(pat) {
			c := pat[px]
			if c == '*' {
				starPx, starSx = px, sx
				px++
				continue
			}
			if eqByte(c, s[sx], fold) {
				px++
				sx++
				continue
			}
		}
		if starPx >= 0 {
			starSx++
			px = starPx + 1
			sx = starSx
			continue
		}
		return false
	}
	for px < len(pat) && pat[px] == '*' {
		px++
	}
	return px == len(pat)
}

// globMatchBytes is globMatch over a byte slice (no fold), so instance
// numbers match against stack-formatted hex without a string conversion.
func globMatchBytes(pat string, s []byte) bool {
	px, sx := 0, 0
	starPx, starSx := -1, 0
	for sx < len(s) {
		if px < len(pat) {
			c := pat[px]
			if c == '*' {
				starPx, starSx = px, sx
				px++
				continue
			}
			if c == s[sx] {
				px++
				sx++
				continue
			}
		}
		if starPx >= 0 {
			starSx++
			px = starPx + 1
			sx = starSx
			continue
		}
		return false
	}
	for px < len(pat) && pat[px] == '*' {
		px++
	}
	return px == len(pat)
}

func eqByte(a, b byte, fold bool) bool {
	if a == b {
		return true
	}
	if !fold {
		return false
	}
	return lowerByte(a) == lowerByte(b)
}

func lowerByte(b byte) byte {
	if b >= 'A' && b <= 'Z' {
		return b + ('a' - 'A')
	}
	return b
}
