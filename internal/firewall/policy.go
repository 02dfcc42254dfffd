// Policy-engine wiring: how the declarative mediation layer sits inside
// the reference monitor.
//
// The engine itself (internal/policy) knows nothing about briefcases or
// transports; this file classifies mediations into policy operations,
// re-dispatches held messages and implements hot reload. The one
// evaluation site is the pipeline's gate stage (mediate.go), which every
// send, inbound frame and re-dispatched message crosses exactly once per
// mediating host. Relays stay header-only: a relayed frame is gated at
// its origin and at its final host, and the relay neither decodes nor
// evaluates it.
package firewall

import (
	"context"
	"errors"
	"fmt"

	"tax/internal/briefcase"
	"tax/internal/policy"
	"tax/internal/telemetry"
	"tax/internal/uri"
)

// policyOpFor classifies one mediation for rule matching: agent
// transfers are "transfer", management briefcases (or anything
// addressed to the firewall itself) "mgmt", everything else — plain
// messages, replies, error envelopes — "send".
func policyOpFor(target uri.URI, bc *briefcase.Briefcase) string {
	switch kind := Kind(bc); {
	case kind == KindTransfer:
		return policy.OpTransfer
	case kind == KindManagement || target.Name == FirewallName:
		return policy.OpMgmt
	}
	return policy.OpSend
}

// dispatch is the entry point for a briefcase that re-enters mediation
// outside a Send call (policy reload, crash recovery). It was admitted
// once already — this is its held state moving, not a new send — so it
// joins the pipeline at address: _SENDER is not re-stamped and sender
// liveness is not re-checked, and a reload can re-dispatch a message
// whose sender has since unregistered.
func (fw *Firewall) dispatch(senderPrincipal string, target uri.URI, bc *briefcase.Briefcase) error {
	var m mediation
	m.origin, m.principal, m.target, m.bc = originHeld, senderPrincipal, target, bc
	return fw.mediate(context.Background(), &m, stageAddress)
}

// Policy returns the firewall's policy engine (nil when mediation runs
// the legacy trust checks only).
func (fw *Firewall) Policy() *policy.Engine { return fw.cfg.Policy }

// ReloadPolicy parses text and installs it as the active ruleset, then
// re-dispatches every policy-held parked message under the new rules: a
// now-allowed message delivers (or forwards), a still-parked one parks
// again with a fresh timeout, a now-denied one returns a typed error
// report to its sender. The parse happens before anything changes, so a
// ruleset that fails validation leaves the old one fully in effect —
// there is no partially-applied window, under concurrent mediation or
// otherwise. Returns the installed version number.
//
// Held messages are taken from the park table under the same stripe
// arbitration as registration flushes, so a message is released by
// exactly one of a concurrent reload and its expiry timer — reload
// mid-itinerary neither drops nor double-delivers.
func (fw *Firewall) ReloadPolicy(text string) (uint64, error) {
	eng := fw.cfg.Policy
	if eng == nil {
		return 0, errors.New("firewall: no policy engine configured")
	}
	rs, err := policy.Parse(text)
	if err != nil {
		fw.record(vNote, telemetry.EventError, fw.cfg.SystemPrincipal, FirewallName,
			"policy reload rejected: "+err.Error(), nil)
		return 0, err
	}
	v := eng.Install(rs)
	fw.record(vNote, telemetry.EventAllow, fw.cfg.SystemPrincipal, FirewallName,
		fmt.Sprintf("policy reload installed version %d (%d rules, %d quotas)", v, len(rs.Rules), len(rs.Quotas)), nil)
	for _, p := range fw.park.take(func(p *pendingMsg) bool { return p.policyHeld }) {
		p.timer.Stop()
		fw.unjournalPark(p)
		if err := fw.dispatch(p.senderPrincipal, p.target, p.bc); err != nil {
			// The held message's new verdict is a rejection (or the
			// forward failed): tell the sender with the typed error the
			// verdict produced, the same envelope an inline denial sends.
			fw.replyError(p.bc, fmt.Sprintf("held message to %s: %v", p.target.String(), err), err)
		}
	}
	return v, nil
}
