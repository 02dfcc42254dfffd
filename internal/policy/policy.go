// Package policy is the firewall's declarative mediation layer: a
// default-deny, hot-reloadable rule engine over (principal, operation,
// target URI pattern), plus per-principal token-bucket rate and byte
// quotas charged against the virtual clock.
//
// A ruleset is line-oriented text:
//
//	# comment
//	default allow            # or "default deny"; absent means deny
//	[label:] allow  <principal-glob> <op> <target-pattern>
//	[label:] deny   <principal-glob> <op> <target-pattern>
//	[label:] park   <principal-glob> <op> <target-pattern>
//	[label:] quota  <principal-glob> rate=N [burst=N] [bytes=N] [bytesburst=N]
//
// Ops are send, transfer, mgmt, or * (any). Rules are evaluated top to
// bottom, first match wins; no match falls through to the default. Quota
// lines also match first-wins per principal; a principal with no
// matching quota line gets the engine's default quota (unlimited unless
// NodeOptions.Quota set one). Globs follow internal/uri: '*' inside a
// component, '**' for whole-tree target patterns.
//
// The engine never grants what no rule allows: the zero Effect is Deny,
// an empty ruleset denies everything, and a parse error never installs.
// Every verdict carries the id of the rule that produced it
// ("p<version>.<label>" or "p<version>.r<index>"), which the firewall
// threads into the audit ring and the tower flight recorder.
package policy

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"tax/internal/uri"
)

// ErrParse wraps every ruleset parse failure.
var ErrParse = errors.New("policy: parse error")

// Caps on hostile rule text: a ruleset is bounded before any line is
// interpreted, so parsing stays O(input) with small constants.
const (
	// MaxText bounds the whole ruleset source.
	MaxText = 1 << 20
	// MaxLine bounds one line.
	MaxLine = 1024
	// MaxRules bounds rules plus quota lines.
	MaxRules = 4096
	// MaxRate bounds every rate and burst value (msgs/sec, bytes/sec,
	// bucket caps). 1e9 msgs/sec saturates int64 token arithmetic
	// headroom; nothing legitimate is faster.
	MaxRate = 1_000_000_000
)

// Effect is a rule's verdict. The zero value is Deny: an uninitialized
// or unmatched decision never lets a message through.
type Effect uint8

const (
	// Deny refuses the operation; the sender gets a typed error.
	Deny Effect = iota
	// Allow admits the operation (quotas are still charged).
	Allow
	// Park holds the message in the firewall's park table; a later
	// reload that allows it delivers it, expiry returns it to the
	// sender.
	Park
)

// String returns the effect's rule-text keyword.
func (e Effect) String() string {
	switch e {
	case Allow:
		return "allow"
	case Park:
		return "park"
	default:
		return "deny"
	}
}

// Operation names, matching the firewall's briefcase kinds: plain
// messages are "send", agent transfers "transfer", management ops
// "mgmt". "*" in a rule matches all three.
const (
	OpSend     = "send"
	OpTransfer = "transfer"
	OpMgmt     = "mgmt"
	OpAny      = "*"
)

// Rule is one access rule: effect applies when the sending principal
// matches Principal, the operation matches Op, and the target URI
// matches Target.
type Rule struct {
	// Label is the optional rule name from the "label:" prefix; it
	// appears in verdict ids instead of the rule index.
	Label string
	// Effect is the verdict when the rule matches.
	Effect Effect
	// Principal is the sending-principal glob.
	Principal string
	// Op is the operation: OpSend, OpTransfer, OpMgmt or OpAny.
	Op string
	// Target is the compiled target URI pattern.
	Target uri.Pattern
}

// Quota is one principal-glob's token-bucket limits. Zero fields are
// unlimited; Burst and ByteBurst default to Rate and Bytes.
type Quota struct {
	// Label is the optional name from the "label:" prefix.
	Label string
	// Principal is the principal glob the quota applies to. Empty (only
	// meaningful for the engine-wide default quota) matches everyone.
	Principal string
	// Rate is the sustained message rate, msgs per virtual second.
	Rate int64
	// Burst is the message bucket capacity; 0 means Rate.
	Burst int64
	// Bytes is the sustained byte rate per virtual second (remote
	// forwards charge encoded frame bytes; local deliveries are not
	// byte-metered).
	Bytes int64
	// ByteBurst is the byte bucket capacity; 0 means Bytes.
	ByteBurst int64
}

// limited reports whether the quota constrains anything.
func (q Quota) limited() bool { return q.Rate > 0 || q.Bytes > 0 }

// Ruleset is a parsed policy: ordered rules, ordered quotas, and the
// fall-through default effect.
type Ruleset struct {
	// Default is the effect when no rule matches: Allow or Deny (never
	// Park). The zero value is Deny.
	Default Effect
	// Rules are evaluated in order; first match wins.
	Rules []Rule
	// Quotas are matched per principal in order; first match wins.
	Quotas []Quota

	text string
}

// Text returns the source the ruleset was parsed from.
func (rs *Ruleset) Text() string { return rs.text }

// Parse compiles ruleset text. Errors carry the 1-based line number and
// never install anything: a ruleset either parses whole or not at all.
func Parse(text string) (*Ruleset, error) {
	if len(text) > MaxText {
		return nil, fmt.Errorf("%w: ruleset larger than %d bytes", ErrParse, MaxText)
	}
	rs := &Ruleset{text: text}
	sawDefault := false
	for lineNo, line := range strings.Split(text, "\n") {
		n := lineNo + 1
		if len(line) > MaxLine {
			return nil, fmt.Errorf("%w: line %d: longer than %d bytes", ErrParse, n, MaxLine)
		}
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(rs.Rules)+len(rs.Quotas) >= MaxRules {
			return nil, fmt.Errorf("%w: line %d: more than %d rules", ErrParse, n, MaxRules)
		}
		label := ""
		if strings.HasSuffix(fields[0], ":") && fields[0] != ":" {
			label = strings.TrimSuffix(fields[0], ":")
			if !validLabel(label) {
				return nil, fmt.Errorf("%w: line %d: bad label %q", ErrParse, n, label)
			}
			fields = fields[1:]
			if len(fields) == 0 {
				return nil, fmt.Errorf("%w: line %d: label without a rule", ErrParse, n)
			}
		}
		switch fields[0] {
		case "default":
			if label != "" {
				return nil, fmt.Errorf("%w: line %d: default takes no label", ErrParse, n)
			}
			if sawDefault {
				return nil, fmt.Errorf("%w: line %d: duplicate default", ErrParse, n)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("%w: line %d: default needs allow|deny", ErrParse, n)
			}
			switch fields[1] {
			case "allow":
				rs.Default = Allow
			case "deny":
				rs.Default = Deny
			default:
				return nil, fmt.Errorf("%w: line %d: default %q (want allow|deny)", ErrParse, n, fields[1])
			}
			sawDefault = true
		case "allow", "deny", "park":
			if len(fields) != 4 {
				return nil, fmt.Errorf("%w: line %d: %s needs <principal> <op> <target>", ErrParse, n, fields[0])
			}
			var eff Effect
			switch fields[0] {
			case "allow":
				eff = Allow
			case "deny":
				eff = Deny
			case "park":
				eff = Park
			}
			prin := fields[1]
			if !uri.ValidGlob(prin) {
				return nil, fmt.Errorf("%w: line %d: bad principal glob %q", ErrParse, n, prin)
			}
			op := fields[2]
			switch op {
			case OpSend, OpTransfer, OpMgmt, OpAny:
			default:
				return nil, fmt.Errorf("%w: line %d: bad op %q (want send|transfer|mgmt|*)", ErrParse, n, op)
			}
			target, err := uri.ParsePattern(fields[3])
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: target: %v", ErrParse, n, err)
			}
			rs.Rules = append(rs.Rules, Rule{
				Label: label, Effect: eff,
				Principal: collapse(prin), Op: op, Target: target,
			})
		case "quota":
			if len(fields) < 3 {
				return nil, fmt.Errorf("%w: line %d: quota needs <principal> key=N...", ErrParse, n)
			}
			prin := fields[1]
			if !uri.ValidGlob(prin) {
				return nil, fmt.Errorf("%w: line %d: bad principal glob %q", ErrParse, n, prin)
			}
			q := Quota{Label: label, Principal: collapse(prin)}
			for _, kv := range fields[2:] {
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("%w: line %d: quota field %q (want key=N)", ErrParse, n, kv)
				}
				v, err := strconv.ParseInt(val, 10, 64)
				if err != nil || v < 0 || v > MaxRate {
					return nil, fmt.Errorf("%w: line %d: quota %s=%q (want 0..%d)", ErrParse, n, key, val, int64(MaxRate))
				}
				switch key {
				case "rate":
					q.Rate = v
				case "burst":
					q.Burst = v
				case "bytes":
					q.Bytes = v
				case "bytesburst":
					q.ByteBurst = v
				default:
					return nil, fmt.Errorf("%w: line %d: quota key %q (want rate|burst|bytes|bytesburst)", ErrParse, n, key)
				}
			}
			if q.Burst == 0 {
				q.Burst = q.Rate
			}
			if q.ByteBurst == 0 {
				q.ByteBurst = q.Bytes
			}
			if q.Burst != 0 && q.Rate == 0 || q.ByteBurst != 0 && q.Bytes == 0 {
				return nil, fmt.Errorf("%w: line %d: quota burst without a rate", ErrParse, n)
			}
			rs.Quotas = append(rs.Quotas, q)
		default:
			return nil, fmt.Errorf("%w: line %d: unknown keyword %q", ErrParse, n, fields[0])
		}
	}
	return rs, nil
}

// MustParse is Parse that panics on error; for tests and constants.
func MustParse(text string) *Ruleset {
	rs, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return rs
}

// AllowAll is the compatibility ruleset: default allow, no rules, no
// quotas. An engine running AllowAll mediates exactly like the legacy
// trust-check-only firewall (the differential property test pins this).
func AllowAll() *Ruleset { return MustParse("default allow\n") }

// validLabel accepts name runes only (labels travel inside verdict ids
// and audit causes, so no glob or separator characters).
func validLabel(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for _, r := range s {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			r >= '0' && r <= '9' || r == '_' || r == '-' || r == '.') {
			return false
		}
	}
	return true
}

// collapse pre-collapses '*' runs so the per-eval MatchGlob call takes
// its no-allocation fast path.
func collapse(glob string) string {
	if !strings.Contains(glob, "**") {
		return glob
	}
	var sb strings.Builder
	sb.Grow(len(glob))
	prev := byte(0)
	for i := 0; i < len(glob); i++ {
		if glob[i] == '*' && prev == '*' {
			continue
		}
		prev = glob[i]
		sb.WriteByte(glob[i])
	}
	return sb.String()
}
