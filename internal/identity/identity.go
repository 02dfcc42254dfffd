// Package identity implements principals, code signing and trust for TAX.
//
// The paper's firewall performs "an initial authentication, based on
// parameters such as the presence of a signed agent core or the presence
// of an authenticated and trusted sender" (§3.2), and vm_bin "executes
// binaries directly on top of the operating system, provided the binary is
// signed by a trusted principal" (§3.3). This package provides the
// primitives both rely on: named principals backed by ed25519 keypairs,
// detached signatures over byte strings, and per-host trust stores that
// map public keys to trust levels.
package identity

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
)

// Level is the trust level a host assigns to a principal. Higher levels
// imply the rights of lower ones.
type Level int

// Trust levels, lowest to highest.
const (
	// Untrusted principals may run only in safety-enforcing VMs and may
	// not address the firewall's management interface.
	Untrusted Level = iota + 1
	// Trusted principals may execute native binaries via vm_bin.
	Trusted
	// System is the local system principal: full management rights
	// (list, kill, stop agents) per §3.2.
	System
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case Untrusted:
		return "untrusted"
	case Trusted:
		return "trusted"
	case System:
		return "system"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

var (
	// ErrUnknownPrincipal is returned when a principal is not in the store.
	ErrUnknownPrincipal = errors.New("identity: unknown principal")
	// ErrBadSignature is returned when signature verification fails.
	ErrBadSignature = errors.New("identity: bad signature")
	// ErrInsufficientTrust is returned when an operation requires a higher
	// trust level than the principal holds.
	ErrInsufficientTrust = errors.New("identity: insufficient trust")
)

// Principal is a named identity holding an ed25519 keypair. The private
// key never leaves the Principal; only PublicKey is shared.
type Principal struct {
	name string
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewPrincipal generates a fresh principal with the given name.
func NewPrincipal(name string) (*Principal, error) {
	if name == "" {
		return nil, errors.New("identity: empty principal name")
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("identity: generate key: %w", err)
	}
	return &Principal{name: name, pub: pub, priv: priv}, nil
}

// Name returns the principal's name.
func (p *Principal) Name() string { return p.name }

// PublicKey returns the principal's public key.
func (p *Principal) PublicKey() ed25519.PublicKey { return p.pub }

// keyID returns a short hex identifier of the public key, convenient for
// logs and trust-store listings.
func (p *Principal) keyID() string { return hex.EncodeToString(p.pub[:8]) }

// Sign produces a detached signature over msg.
func (p *Principal) Sign(msg []byte) []byte {
	return ed25519.Sign(p.priv, msg)
}

// Verify checks a detached signature against a public key.
func Verify(pub ed25519.PublicKey, msg, sig []byte) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: bad key size %d", ErrBadSignature, len(pub))
	}
	if !ed25519.Verify(pub, msg, sig) {
		return ErrBadSignature
	}
	return nil
}

// TrustStore maps principal names to their public keys and trust levels.
// It is the host-local authority the firewall and vm_bin consult. A zero
// TrustStore is ready to use; methods are safe for concurrent use.
type TrustStore struct {
	mu      sync.RWMutex
	entries map[string]trustEntry

	// verified remembers signature checks that succeeded, keyed by a
	// digest of (public key, signature, message); see VerifyManifest.
	verified map[[sha256.Size]byte]struct{}
}

// verifiedCacheSize bounds TrustStore.verified. One entry is one signed
// agent core this host has seen; at 32 bytes a key the table stays under
// a hundred kilobytes however many cores pass through.
const verifiedCacheSize = 1024

type trustEntry struct {
	pub   ed25519.PublicKey
	level Level
}

// Add registers (or replaces) a principal's public key at the given level.
func (s *TrustStore) Add(name string, pub ed25519.PublicKey, level Level) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries == nil {
		s.entries = make(map[string]trustEntry)
	}
	k := make(ed25519.PublicKey, len(pub))
	copy(k, pub)
	s.entries[name] = trustEntry{pub: k, level: level}
}

// AddPrincipal registers a principal's public key at the given level.
func (s *TrustStore) AddPrincipal(p *Principal, level Level) {
	s.Add(p.Name(), p.PublicKey(), level)
}

// Remove deletes a principal from the store.
func (s *TrustStore) Remove(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.entries, name)
}

// Level returns the trust level of the named principal.
func (s *TrustStore) Level(name string) (Level, error) {
	e, err := s.entry(name)
	return e.level, err
}

// Key returns the public key of the named principal.
func (s *TrustStore) Key(name string) (ed25519.PublicKey, error) {
	e, err := s.entry(name)
	if err != nil {
		return nil, err
	}
	k := make(ed25519.PublicKey, len(e.pub))
	copy(k, e.pub)
	return k, nil
}

// VerifyBy checks that sig is a valid signature by the named principal
// over msg, and that the principal holds at least the required level.
func (s *TrustStore) VerifyBy(name string, msg, sig []byte, required Level) error {
	e, err := s.entry(name)
	if err != nil {
		return err
	}
	if err := Verify(e.pub, msg, sig); err != nil {
		return fmt.Errorf("principal %q: %w", name, err)
	}
	return e.require(name, required)
}

// VerifyManifest is VerifyBy for a short message the host will be shown
// again — an agent core's manifest, presented at every arrival of that
// core. A check that succeeds is remembered, and cached reports that the
// signature was found there instead of being run through ed25519 again.
//
// The cache cannot widen what verifies. Whether a signature is valid is
// a pure function of (public key, message, signature), and exactly that
// triple is the cache key; the principal's key is looked up live on
// every call, so a Remove, or an Add that replaces the key, makes the
// old entries unreachable; the trust level is compared live, after the
// signature; and only successes are stored, so a hostile sender cannot
// plant anything or make a later valid signature fail.
func (s *TrustStore) VerifyManifest(name string, manifest, sig []byte, required Level) (cached bool, err error) {
	e, err := s.entry(name)
	if err != nil {
		return false, err
	}
	// Fixed-length key and signature in front of the message make the
	// hashed concatenation unambiguous. Any other lengths cannot verify,
	// and must not be looked up: they could alias a remembered triple.
	cacheable := len(e.pub) == ed25519.PublicKeySize && len(sig) == ed25519.SignatureSize
	var key [sha256.Size]byte
	if cacheable {
		var buf [256]byte
		key = sha256.Sum256(append(append(append(buf[:0], e.pub...), sig...), manifest...))
		s.mu.RLock()
		_, cached = s.verified[key]
		s.mu.RUnlock()
	}
	if !cached {
		if err := Verify(e.pub, manifest, sig); err != nil {
			return false, fmt.Errorf("principal %q: %w", name, err)
		}
		s.remember(key)
	}
	return cached, e.require(name, required)
}

// remember stores a verified triple's key, evicting an arbitrary entry
// when the cache is full.
func (s *TrustStore) remember(key [sha256.Size]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.verified == nil {
		s.verified = make(map[[sha256.Size]byte]struct{})
	}
	if len(s.verified) >= verifiedCacheSize {
		for k := range s.verified {
			delete(s.verified, k)
			break
		}
	}
	s.verified[key] = struct{}{}
}

// entry reads the named principal's key and level as they are now.
func (s *TrustStore) entry(name string) (trustEntry, error) {
	s.mu.RLock()
	e, ok := s.entries[name]
	s.mu.RUnlock()
	if !ok {
		return e, fmt.Errorf("%w: %q", ErrUnknownPrincipal, name)
	}
	return e, nil
}

func (e trustEntry) require(name string, required Level) error {
	if e.level < required {
		return fmt.Errorf("%w: %q is %v, need %v", ErrInsufficientTrust, name, e.level, required)
	}
	return nil
}

// Require returns nil when the named principal holds at least the
// required level.
func (s *TrustStore) Require(name string, required Level) error {
	e, err := s.entry(name)
	if err != nil {
		return err
	}
	return e.require(name, required)
}

// Names returns the registered principal names (unordered).
func (s *TrustStore) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.entries))
	for n := range s.entries {
		out = append(out, n)
	}
	return out
}
