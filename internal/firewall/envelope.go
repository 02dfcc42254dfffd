package firewall

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"tax/internal/briefcase"
	"tax/internal/identity"
)

// Message kinds carried in the _KIND folder. In TAX every observable
// action is "send a briefcase"; the kind tells the receiving firewall
// whether the briefcase is ordinary agent communication, a moving agent,
// a management request, or a system-generated error report.
const (
	// KindMessage is ordinary agent-to-agent communication.
	KindMessage = "msg"
	// KindTransfer carries a moving agent (go/spawn): the briefcase is the
	// agent's consistent snapshot, targeted at a VM on the destination.
	KindTransfer = "xfer"
	// KindManagement is a request addressed to the firewall itself.
	KindManagement = "mgmt"
	// KindError is a system-generated error report sent back to a sender.
	KindError = "err"
)

// Reserved folders the firewall reads or writes beyond those declared in
// package briefcase.
const (
	// FolderKind holds one of the Kind* constants; absent means KindMessage.
	FolderKind = "_KIND"
	// FolderMsgID carries a correlation id assigned by the sender.
	FolderMsgID = "_MSGID"
	// FolderReplyTo carries the _MSGID a meet() response answers.
	FolderReplyTo = "_REPLYTO"
)

// Kind returns the briefcase's message kind (KindMessage when absent).
func Kind(bc *briefcase.Briefcase) string {
	if k, ok := bc.GetString(FolderKind); ok {
		return k
	}
	return KindMessage
}

// ErrUnsigned is returned when a transfer carries no signature.
var ErrUnsigned = errors.New("firewall: agent core not signed")

// coreManifestTag domain-separates core signatures from everything else
// a principal's key signs (channel seals sign raw frame bytes).
const coreManifestTag = "TAX core manifest v1\n"

// appendCoreManifest appends the message a core signature covers: the
// domain tag, the length-prefixed principal, and the SHA-256 of the
// canonical encoding of CODE and BINARIES (briefcase.CoreDigest). Its
// size depends on the principal's name alone, never on the core's, so
// ed25519 runs over about a hundred bytes whatever the agent carries.
// Naming the principal inside the signed message binds the signature to
// the _PRINCIPAL claim beside it.
func appendCoreManifest(dst []byte, principal string, digest [briefcase.CoreDigestSize]byte) []byte {
	dst = append(dst, coreManifestTag...)
	dst = binary.AppendUvarint(dst, uint64(len(principal)))
	dst = append(dst, principal...)
	return append(dst, digest[:]...)
}

// coreDigest returns the core's digest: the stamped one while the stamp
// holds — the core has not changed since it was computed — else a fresh
// hash of the core.
func coreDigest(bc *briefcase.Briefcase) [briefcase.CoreDigestSize]byte {
	if digest, _, ok := bc.CoreStamp(); ok {
		return digest
	}
	return bc.CoreDigest()
}

// SignCore signs the briefcase's agent core with the principal's key and
// records the principal name and detached signature in the system
// folders. It leaves a core stamp behind (briefcase.StampCore).
func SignCore(bc *briefcase.Briefcase, p *identity.Principal) {
	digest := coreDigest(bc)
	var buf [128]byte
	sig := p.Sign(appendCoreManifest(buf[:0], p.Name(), digest))
	bc.SetString(briefcase.FolderSysPrincipal, p.Name())
	f := bc.Ensure(briefcase.FolderSysSignature)
	f.Clear()
	f.Append(sig)
	bc.StampCore(digest, p.Name())
}

// VerifyCore checks the core signature against the trust store and
// returns the signing principal's name. required is the minimum trust
// level the signer must hold. Success leaves a core stamp behind; any
// failure leaves the briefcase as it was.
func VerifyCore(bc *briefcase.Briefcase, trust *identity.TrustStore, required identity.Level) (string, error) {
	principal, _, _, err := verifyCore(bc, trust, required, nil)
	return principal, err
}

// verifyCore is VerifyCore that also takes the digest from memo when the
// stamp misses and memo holds this core, and reports whether the
// signature check was answered by the trust store's verified-manifest
// cache and whether the core was hashed. A nil memo is VerifyCore's.
func verifyCore(bc *briefcase.Briefcase, trust *identity.TrustStore, required identity.Level, memo *coreMemo) (principal string, cached, hashed bool, err error) {
	principal, ok := bc.GetString(briefcase.FolderSysPrincipal)
	if !ok {
		return "", false, false, fmt.Errorf("%w: no principal", ErrUnsigned)
	}
	f, err := bc.Folder(briefcase.FolderSysSignature)
	if err != nil || f.Len() == 0 {
		return "", false, false, fmt.Errorf("%w: no signature", ErrUnsigned)
	}
	sig, err := f.Element(0)
	if err != nil {
		return "", false, false, fmt.Errorf("%w: %v", ErrUnsigned, err)
	}
	digest, _, ok := bc.CoreStamp()
	if !ok && memo != nil {
		digest, ok = memo.lookup(sig, bc)
	}
	if !ok {
		digest, hashed = bc.CoreDigest(), true
	}
	var buf [128]byte
	cached, err = trust.VerifyManifest(principal, appendCoreManifest(buf[:0], principal, digest), sig, required)
	if err != nil {
		return "", false, hashed, err
	}
	bc.StampCore(digest, principal)
	if hashed && memo != nil {
		memo.remember(sig, bc)
	}
	return principal, cached, hashed, nil
}

// coreMemoBudget bounds the core bytes one host's digest memo retains.
// A core larger than the whole budget is never retained.
const coreMemoBudget = 4 << 20

// coreMemo is a host's digest memo: what the cores that verified here
// hash to, so a core arriving again is byte-compared rather than hashed.
// It is keyed by the transfer's signature, and each entry is a private
// copy of the core's wire regions with the digest computed over them
// (briefcase.CoreImage). It memoizes a pure function — bytes to SHA-256
// — and a hit is proven by a full compare, so it decides nothing: the
// signature is still checked against the trust store, live, on every
// arrival. Only a successful verification adds an entry, so a hostile
// sender can plant nothing; evicting one costs a re-hash. The memo is
// volatile state, and CrashWipe empties it.
type coreMemo struct {
	mu      sync.RWMutex
	entries map[string]*briefcase.CoreImage
	size    int // core bytes retained, at most coreMemoBudget
}

// lookup returns the digest the memo holds for bc's core under sig, if
// bc's core is byte for byte the one retained. Images never change once
// stored, so the compare runs outside the lock.
func (m *coreMemo) lookup(sig []byte, bc *briefcase.Briefcase) (digest [briefcase.CoreDigestSize]byte, ok bool) {
	m.mu.RLock()
	img := m.entries[string(sig)]
	m.mu.RUnlock()
	if img == nil {
		return digest, false
	}
	return img.Match(bc)
}

// remember retains bc's just-verified core under sig, evicting arbitrary
// entries until it fits the budget.
func (m *coreMemo) remember(sig []byte, bc *briefcase.Briefcase) {
	img, ok := bc.CopyCore(coreMemoBudget)
	if !ok {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil {
		m.entries = make(map[string]*briefcase.CoreImage)
	}
	if old := m.entries[string(sig)]; old != nil {
		m.size -= old.Size()
		delete(m.entries, string(sig))
	}
	for k, e := range m.entries {
		if m.size+img.Size() <= coreMemoBudget {
			break
		}
		m.size -= e.Size()
		delete(m.entries, k)
	}
	m.entries[string(sig)] = img
	m.size += img.Size()
}

// reset forgets every entry.
func (m *coreMemo) reset() {
	m.mu.Lock()
	m.entries, m.size = nil, 0
	m.mu.Unlock()
}

// Channel-authentication folders: a sealed frame is an outer briefcase
// wrapping the payload with the sending firewall's signature.
const (
	// FolderFramePayload holds the inner frame bytes.
	FolderFramePayload = "_FRAME"
	// FolderFrameFrom names the sending firewall's principal.
	FolderFrameFrom = "_FRAMEFROM"
	// FolderFrameSig holds the detached signature over the payload.
	FolderFrameSig = "_FRAMESIG"
)

// ErrChannelAuth is returned for inbound frames failing channel
// authentication.
var ErrChannelAuth = errors.New("firewall: channel authentication failed")

// sealFrame wraps payload with the host principal's signature; with no
// signer configured the payload passes through unsealed. The payload is
// aliased into the outer briefcase and copied exactly once, by the
// encode — the seal adds only header bytes around the payload region.
func sealFrame(signer *identity.Principal, payload []byte) []byte {
	if signer == nil {
		return payload
	}
	outer := briefcase.New()
	outer.Ensure(FolderFramePayload).AppendAlias(payload)
	outer.SetString(FolderFrameFrom, signer.Name())
	outer.Ensure(FolderFrameSig).Append(signer.Sign(payload))
	return outer.Encode()
}

// peekSealed returns the inner payload of a sealed frame without
// materializing the outer briefcase, or (nil, false) when raw is not a
// sealed frame (unsealed briefcase, container, or garbage — callers
// that admit frames still Decode and validate fully).
func peekSealed(raw []byte) ([]byte, bool) {
	payload, err := briefcase.Peek(raw, FolderFramePayload)
	if err != nil {
		return nil, false
	}
	return payload, true
}

// openFrame recovers the payload of a possibly-sealed frame. With
// requireAuth set, unsealed frames and bad signatures are rejected; the
// signing principal must hold at least Trusted.
//
// The envelope is read with header peeks: an inbound frame is decoded
// exactly once (by the caller, after openFrame returns the payload)
// rather than once for the seal check and again for routing. Peeks
// validate only the prefix of the outer frame they scan; the payload —
// the only part that is routed onward — still passes the full decoder.
func openFrame(trust *identity.TrustStore, requireAuth bool, raw []byte) ([]byte, error) {
	payload, err := briefcase.Peek(raw, FolderFramePayload)
	switch {
	case err == nil:
		// Sealed frame; fall through to the auth decision.
	case errors.Is(err, briefcase.ErrNoFolder):
		if requireAuth {
			return nil, fmt.Errorf("%w: frame not sealed", ErrChannelAuth)
		}
		return raw, nil
	case errors.Is(err, briefcase.ErrNoElement):
		return nil, fmt.Errorf("%w: empty frame", ErrChannelAuth)
	default:
		return nil, err
	}
	if !requireAuth {
		return payload, nil
	}
	if err := verifySeal(trust, raw, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// verifySeal checks a sealed frame's channel signature over its already
// peeked payload, reading the seal headers without materializing the
// outer briefcase. The signing principal must hold at least Trusted.
func verifySeal(trust *identity.TrustStore, raw, payload []byte) error {
	from, ok := briefcase.PeekString(raw, FolderFrameFrom)
	if !ok {
		return fmt.Errorf("%w: sealed frame without principal", ErrChannelAuth)
	}
	sig, err := briefcase.Peek(raw, FolderFrameSig)
	if err != nil {
		return fmt.Errorf("%w: sealed frame without signature", ErrChannelAuth)
	}
	if err := trust.VerifyBy(from, payload, sig, identity.Trusted); err != nil {
		return fmt.Errorf("%w: %v", ErrChannelAuth, err)
	}
	return nil
}

// errorReport builds a KindError briefcase describing why msg could not
// be handled, addressed back to the original sender.
func errorReport(target, sender, reason string) *briefcase.Briefcase {
	bc := briefcase.New()
	bc.SetString(FolderKind, KindError)
	bc.SetString(briefcase.FolderSysTarget, sender)
	bc.SetString(briefcase.FolderSysError, reason)
	bc.SetString(briefcase.FolderSysSender, target)
	return bc
}
