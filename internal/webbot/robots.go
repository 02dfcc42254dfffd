package webbot

import (
	"strconv"
	"strings"
	"time"
)

// Robots is a parsed robots.txt: agent groups, each holding allow /
// disallow path rules and an optional crawl delay. Matching follows
// the de-facto standard: the group whose agent token matches the
// crawler most specifically applies; within it the longest matching
// rule wins, allow winning ties; patterns support '*' wildcards and a
// '$' end anchor; an unmatched path is allowed.
type Robots struct {
	groups []robotsGroup
}

type robotsGroup struct {
	agents   []string // lowercase tokens; "*" is the wildcard group
	rules    []robotsRule
	delay    time.Duration
	hasDelay bool
}

type robotsRule struct {
	allow    bool
	pattern  string // '$' anchor stripped
	anchored bool
	prio     int // specificity: pattern length, longest wins
}

// ParseRobots parses a robots.txt body. It never fails: unparseable
// lines are skipped, exactly as crawlers treat them in the wild.
func ParseRobots(body string) *Robots {
	r := &Robots{}
	var cur *robotsGroup
	inAgents := false // consecutive User-agent lines share one group
	for _, line := range strings.Split(body, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		i := strings.IndexByte(line, ':')
		if i < 0 {
			continue
		}
		field := strings.ToLower(strings.TrimSpace(line[:i]))
		value := strings.TrimSpace(line[i+1:])
		switch field {
		case "user-agent":
			if !inAgents {
				r.groups = append(r.groups, robotsGroup{})
				cur = &r.groups[len(r.groups)-1]
				inAgents = true
			}
			cur.agents = append(cur.agents, strings.ToLower(value))
		case "allow", "disallow":
			inAgents = false
			if cur == nil || value == "" {
				// Rules before any group are ignored; an empty pattern
				// matches nothing.
				continue
			}
			rule := robotsRule{allow: field == "allow", pattern: value, prio: len(value)}
			if strings.HasSuffix(rule.pattern, "$") {
				rule.anchored = true
				rule.pattern = rule.pattern[:len(rule.pattern)-1]
			}
			cur.rules = append(cur.rules, rule)
		case "crawl-delay":
			inAgents = false
			if cur == nil {
				continue
			}
			if secs, err := strconv.ParseFloat(value, 64); err == nil && secs >= 0 && secs < 1e6 {
				cur.delay = time.Duration(secs * float64(time.Second))
				cur.hasDelay = true
			}
		default:
			inAgents = false
		}
	}
	return r
}

// group returns the most specifically matching group for agent, or nil.
func (r *Robots) group(agent string) *robotsGroup {
	if r == nil {
		return nil
	}
	agent = strings.ToLower(agent)
	var best *robotsGroup
	bestLen := -1
	for i := range r.groups {
		g := &r.groups[i]
		for _, tok := range g.agents {
			switch {
			case tok == "*":
				if bestLen < 0 {
					best, bestLen = g, 0
				}
			case strings.Contains(agent, tok):
				if len(tok) > bestLen {
					best, bestLen = g, len(tok)
				}
			}
		}
	}
	return best
}

// Allowed reports whether agent may fetch path ("/a/b.html"). A nil
// Robots (no robots.txt served) allows everything.
func (r *Robots) Allowed(agent, path string) bool {
	return r.group(agent).allowed(path)
}

// allowed applies one group's rules to path. A nil group (no rules for
// the agent) allows everything.
func (g *robotsGroup) allowed(path string) bool {
	if g == nil {
		return true
	}
	if path == "" {
		path = "/"
	}
	allow, bestPrio := true, -1
	for _, rule := range g.rules {
		if rule.prio < bestPrio {
			continue
		}
		if !robotsMatch(rule.pattern, rule.anchored, path) {
			continue
		}
		if rule.prio > bestPrio || rule.allow {
			// Longest match wins; on equal length allow beats disallow.
			allow, bestPrio = rule.allow, rule.prio
		}
	}
	return allow
}

// CrawlDelay returns the crawl delay requested for agent (0 if none).
func (r *Robots) CrawlDelay(agent string) time.Duration {
	if g := r.group(agent); g != nil && g.hasDelay {
		return g.delay
	}
	return 0
}

// robotsMatch reports whether a rule pattern matches path: a prefix
// match unless anchored, with '*' matching any run of characters.
// Iterative single-backtrack glob matching, O(len(pattern)·len(path)).
func robotsMatch(pattern string, anchored bool, path string) bool {
	pi, si := 0, 0
	star, mark := -1, 0
	for si < len(path) {
		switch {
		case pi == len(pattern) && !anchored:
			// Prefix semantics: the pattern only has to consume a
			// prefix of the path, as if it ended in a wildcard.
			return true
		case pi < len(pattern) && pattern[pi] == '*':
			star, mark = pi, si
			pi++
		case pi < len(pattern) && pattern[pi] == path[si]:
			pi++
			si++
		case star >= 0:
			mark++
			pi, si = star+1, mark
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '*' {
		pi++
	}
	return pi == len(pattern)
}

// urlPath extracts the path component of an absolute URL for robots
// matching: "http://host/a/b.html" → "/a/b.html".
func urlPath(url string) string {
	rest := url
	if i := strings.Index(url, "://"); i >= 0 {
		rest = url[i+3:]
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[i:]
	}
	return "/"
}

// robotsURLFor derives the /robots.txt address for a URL's host, or ""
// when the URL has no scheme://host shape.
func robotsURLFor(url string) string {
	i := strings.Index(url, "://")
	if i < 0 {
		return ""
	}
	rest := url[i+3:]
	host := rest
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		host = rest[:j]
	}
	if host == "" {
		return ""
	}
	return url[:i+3] + host + "/robots.txt"
}
