// Zero-copy forwarding: the firewall's relay fast path.
//
// PR 5 made encode/decode cheap at the endpoints, but the firewall still
// refused to route a frame whose target lives on a third host — and any
// forwarding built above it (an application-level hop agent) pays a full
// decode and re-encode of the payload per hop. With Config.Relay set,
// the firewall forwards such frames itself, and it does so without ever
// materializing the payload: the envelope headers (_TARGET, _KIND, the
// seal folders) are read with briefcase.Peek directly off the wire
// bytes, the next hop comes from Config.Resolve, and the frame — the
// very buffer the transport delivered — is handed to the outbound link.
// A multi-hop itinerary therefore encodes its payload once at the
// origin and decodes it once at the final receiver; relays touch only
// headers.
//
// Composition with batched mediation (batch.go) works in both
// directions. Inbound containers whose inner frames all resolve to the
// same non-local next hop are forwarded as containers, verbatim,
// without unpacking; mixed containers fall back to unbatch, and each
// non-local inner frame takes the per-frame relay path. Outbound, a
// relayed frame joins the batcher's per-link queue like any locally
// originated forward.
//
// A relayed frame is a mediation like any other (mediate.go): admitted
// on its seal, addressed off its header peeks, forwarded by the same
// act stage and counted by the same emit. This file holds only what is
// particular to relaying: the zero-copy transport hook and the
// whole-container short cut.
//
// The reference-monitor argument (DESIGN §10): relaying is mediation,
// not bypass. The relay reads exactly the envelope fields the inbound
// path would read anyway, applies the same channel-authentication
// policy (a ChannelAuth relay verifies the seal before forwarding, and
// a ChannelSigner relay re-seals — aliasing the payload — so the next
// hop sees an authenticated sender), and the final receiver still runs
// the full inbound mediation: decode, dedup, transfer authentication,
// routing policy. Byte-identical forwarding means the relay cannot
// alter what the final monitor sees — FuzzForward holds it to that.
package firewall

import (
	"time"
)

// ownedSender is the transport's zero-copy send: ownership of the
// payload buffer passes to the network, which delivers it without the
// defensive copy Send makes. The simnet host implements it; transports
// that don't fall back to Send.
type ownedSender interface {
	SendOwned(to string, payload []byte) error
}

// stampedSender is the simulated transport's send (simnet.Host): it also
// reports the sender-side instant the frame finished serializing, and
// carries the frame's trace out of band. The forward's hand-off is that
// instant: read from the clock after the send, it would land late
// whenever a fast reply had already advanced the clock.
type stampedSender interface {
	SendStamped(to string, payload []byte, owned bool, traceID, spanID string) (time.Duration, error)
}

// relayContainer forwards a whole inbound batch container verbatim when
// every inner frame addresses the same non-local next hop: the
// container crosses the relay as one transport message without being
// unpacked. It reports whether the container was consumed; false falls
// back to unbatch, which mediates each inner frame individually (any
// non-local ones then relay frame by frame) and audits whatever defect
// stopped the walk here.
//
// A relay that authenticates or re-seals channels (ChannelAuth or
// ChannelSigner) never short-circuits containers: those policies are
// per-frame, so such hosts unpack and admit every frame on its own.
func (fw *Firewall) relayContainer(from string, payload []byte) bool {
	if fw.cfg.ChannelAuth || fw.cfg.ChannelSigner != nil {
		return false
	}
	// One mediation both probes and forwards: each inner frame is
	// addressed into it in turn (only the next hop is compared across
	// frames), and what is left describes the container's last frame,
	// which nothing downstream reads — a container's outcomes name its
	// next hop, not a target.
	var m mediation
	m.origin, m.from, m.wire, m.relay, m.hist = originFrame, from, payload, true, fw.histInbound
	next, uniform := "", true
	defect, _ := walkContainer(payload, func(frame []byte) bool {
		_, elsewhere := fw.peek(&m, frame)
		uniform = elsewhere && m.unroutable == nil && m.addr != from && (m.frames == 0 || m.addr == next)
		next = m.addr
		m.frames++
		return uniform
	})
	if defect != "" || !uniform || m.frames == 0 {
		return false
	}
	_ = fw.mediate(&m, stageAct)
	return true
}
