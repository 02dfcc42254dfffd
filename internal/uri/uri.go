// Package uri parses and prints TACOMA agent URIs following the EBNF of
// figure 2 of the paper:
//
//	tacomauri  = [ "tacoma://" hostport "/" ] agpath
//	hostport   = host [ ":" port ]
//	agpath     = [ principal "/" ] agentid
//	agentid    = name ":" instance | name | ":" instance
//	name       = alphanum { alphanum }
//	instance   = hex { hex }
//
// Examples from the paper:
//
//	tacoma://cl2.cs.uit.no:27017//vm_c:933821661
//	tacoma://cl2.cs.uit.no/tacoma@cl2.cs.uit.no/ag_cron
//	tacomaproject/:933821661
//
// If the optional remote part is left out the target is local. If the
// principal is left out, only two principals are considered valid: the
// local system, or the principal of the mobile agent itself. Supplying
// only a name addresses a broader class of agents (e.g. service agents);
// supplying an instance number pins communication to one entity.
package uri

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Scheme is the URI scheme prefix for remote agent addresses.
const Scheme = "tacoma://"

// DefaultPort is the TCP port a TAX firewall listens on when no port is
// given (the paper's examples use 27017).
const DefaultPort = 27017

// ErrParse is wrapped by every parse failure.
var ErrParse = errors.New("uri: parse error")

// URI is a parsed agent address. The zero value is the "anything local"
// address: no host, no principal, no name, no instance.
type URI struct {
	// Host is the remote host name, empty for a local target.
	Host string
	// Port is the remote firewall port; meaningful only when Host is set.
	// Zero means DefaultPort.
	Port int
	// Principal is the principal path segment; empty means "local system
	// or the agent's own principal" per the paper.
	Principal string
	// Name is the agent name; empty when only an instance is given.
	Name string
	// Instance is the hexadecimal instance number; valid when HasInstance.
	Instance uint64
	// HasInstance distinguishes ":0" from "no instance given".
	HasInstance bool
}

// Parse parses s into a URI.
func Parse(s string) (URI, error) {
	var u URI
	rest := s
	if strings.HasPrefix(rest, Scheme) {
		rest = rest[len(Scheme):]
		slash := strings.IndexByte(rest, '/')
		if slash < 0 {
			return URI{}, fmt.Errorf("%w: %q: missing '/' after hostport", ErrParse, s)
		}
		hostport := rest[:slash]
		rest = rest[slash+1:]
		host, port, err := splitHostPort(hostport)
		if err != nil {
			return URI{}, fmt.Errorf("%w: %q: %v", ErrParse, s, err)
		}
		u.Host, u.Port = host, port
	}
	// rest is now agpath = [principal/] agentid
	if slash := strings.LastIndexByte(rest, '/'); slash >= 0 {
		u.Principal = rest[:slash]
		rest = rest[slash+1:]
	}
	if err := parseAgentID(rest, &u); err != nil {
		return URI{}, fmt.Errorf("%w: %q: %v", ErrParse, s, err)
	}
	if u.Host == "" && u.Principal == "" && u.Name == "" && !u.HasInstance {
		return URI{}, fmt.Errorf("%w: %q: empty agent id", ErrParse, s)
	}
	return u, nil
}

// MustParse is Parse that panics on error; for tests and constants.
func MustParse(s string) URI {
	u, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return u
}

func splitHostPort(hostport string) (string, int, error) {
	if hostport == "" {
		return "", 0, errors.New("empty host")
	}
	host := hostport
	port := 0
	if colon := strings.LastIndexByte(hostport, ':'); colon >= 0 {
		host = hostport[:colon]
		p, err := strconv.Atoi(hostport[colon+1:])
		if err != nil || p <= 0 || p > 65535 {
			return "", 0, fmt.Errorf("bad port %q", hostport[colon+1:])
		}
		port = p
	}
	if host == "" {
		return "", 0, errors.New("empty host")
	}
	for _, r := range host {
		if !isHostRune(r) {
			return "", 0, fmt.Errorf("bad host rune %q", r)
		}
	}
	return host, port, nil
}

func parseAgentID(id string, u *URI) error {
	if id == "" {
		return nil // bare principal path addresses the whole class
	}
	name := id
	if colon := strings.IndexByte(id, ':'); colon >= 0 {
		name = id[:colon]
		inst := id[colon+1:]
		if inst == "" {
			return errors.New("empty instance after ':'")
		}
		v, err := strconv.ParseUint(inst, 16, 64)
		if err != nil {
			return fmt.Errorf("bad instance %q", inst)
		}
		u.Instance = v
		u.HasInstance = true
	}
	if name != "" {
		for _, r := range name {
			if !isNameRune(r) {
				return fmt.Errorf("bad name rune %q", r)
			}
		}
	}
	u.Name = name
	return nil
}

func isNameRune(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
		r >= '0' && r <= '9' || r == '_' || r == '-' || r == '.'
}

func isHostRune(r rune) bool {
	return isNameRune(r)
}

// String renders the URI back into the figure-2 notation. Parse(u.String())
// yields u for every valid URI.
func (u URI) String() string {
	var sb strings.Builder
	if u.Host != "" {
		sb.WriteString(Scheme)
		sb.WriteString(u.Host)
		if u.Port != 0 && u.Port != DefaultPort {
			sb.WriteByte(':')
			sb.WriteString(strconv.Itoa(u.Port))
		}
		sb.WriteByte('/')
	}
	if u.Principal != "" || u.Host != "" {
		// A remote URI always carries the principal slot (possibly empty,
		// producing the paper's double-slash form).
		sb.WriteString(u.Principal)
		sb.WriteByte('/')
	}
	sb.WriteString(u.Name)
	if u.HasInstance {
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatUint(u.Instance, 16))
	}
	return sb.String()
}

// IsLocal reports whether the URI names a local target (no remote part).
func (u URI) IsLocal() bool { return u.Host == "" }

// EffectivePort returns Port, or DefaultPort when unset.
func (u URI) EffectivePort() int {
	if u.Port == 0 {
		return DefaultPort
	}
	return u.Port
}

// WithHost returns a copy of u pinned to the given host and port.
func (u URI) WithHost(host string, port int) URI {
	u.Host, u.Port = host, port
	return u
}

// withInstance returns a copy of u pinned to the given instance number.
func (u URI) withInstance(inst uint64) URI {
	u.Instance, u.HasInstance = inst, true
	return u
}

// Matches reports whether a registered agent identity (the receiver,
// fully specified: name and instance) is addressed by the query q.
// Matching follows §3.2: a query may give only a name (addressing the
// class of agents with that name), only an instance, or both. The host
// part is not compared here — routing to the right host happens before
// matching. An empty query principal matches any principal (the firewall
// separately enforces that empty-principal queries may only reach the
// local system principal or the sender's own principal).
func (u URI) Matches(q URI) bool {
	if q.Name != "" && q.Name != u.Name {
		return false
	}
	if q.HasInstance && (!u.HasInstance || q.Instance != u.Instance) {
		return false
	}
	if q.Principal != "" && q.Principal != u.Principal {
		return false
	}
	return true
}

// Equal reports whether two URIs are identical in every field (with Port
// normalized through EffectivePort for remote URIs).
func (u URI) Equal(o URI) bool {
	if u.Host != o.Host || u.Principal != o.Principal || u.Name != o.Name ||
		u.HasInstance != o.HasInstance || u.Instance != o.Instance {
		return false
	}
	if u.Host != "" && u.EffectivePort() != o.EffectivePort() {
		return false
	}
	return true
}
