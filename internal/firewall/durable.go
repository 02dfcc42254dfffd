// Crash durability for the firewall's mediation tables.
//
// The park table and the dedup window are host state the paper's file
// cabinets make survivable: a parked message is a promise to deliver,
// and the dedup window is the memory that keeps redelivery safe — both
// must outlive a host crash or the fault model is lying. When
// Config.Durable is set, every park is journaled as a cabinet
// transaction (and unjournaled when the message is delivered, expired
// or dropped), and every dedup observation is appended unsynced (losing
// the tail of the dedup journal on crash only re-admits a duplicate the
// window would also have forgotten by aging — safe, and it keeps the
// inbound hot path free of fsyncs). CrashWipe models the power loss;
// RecoverDurable replays the cabinet back into live tables.
package firewall

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"tax/internal/briefcase"
	"tax/internal/cabinet"
	"tax/internal/telemetry"
	"tax/internal/uri"
)

// Cabinet key prefixes for the firewall's durable tables.
const (
	parkKeyPrefix  = "fwpark/"
	dedupKeyPrefix = "fwdedup/"
)

// Park-record folder names (the journal value is itself a briefcase).
const (
	folderParkPrincipal = "_PPRIN"
	folderParkTarget    = "_PTGT"
	folderParkBody      = "_PBODY"
)

// encodeParkRecord renders one parked message for the cabinet journal.
func encodeParkRecord(senderPrincipal string, target uri.URI, bc *briefcase.Briefcase) []byte {
	rec := briefcase.New()
	rec.SetString(folderParkPrincipal, senderPrincipal)
	rec.SetString(folderParkTarget, target.String())
	rec.Ensure(folderParkBody).Append(bc.Encode())
	return rec.Encode()
}

// decodeParkRecord is the inverse of encodeParkRecord.
func decodeParkRecord(v []byte) (senderPrincipal string, target uri.URI, bc *briefcase.Briefcase, err error) {
	rec, err := briefcase.Decode(v)
	if err != nil {
		return "", uri.URI{}, nil, err
	}
	senderPrincipal, _ = rec.GetString(folderParkPrincipal)
	targetStr, ok := rec.GetString(folderParkTarget)
	if !ok {
		return "", uri.URI{}, nil, fmt.Errorf("firewall: park record has no target")
	}
	target, err = uri.Parse(targetStr)
	if err != nil {
		return "", uri.URI{}, nil, err
	}
	body, err := rec.Ensure(folderParkBody).Element(0)
	if err != nil {
		return "", uri.URI{}, nil, fmt.Errorf("firewall: park record has no body")
	}
	bc, err = briefcase.Decode(body)
	if err != nil {
		return "", uri.URI{}, nil, err
	}
	return senderPrincipal, target, bc, nil
}

// journalPark writes a parked message through the cabinet. The fsync is
// the price of the promise: once parked, a message survives the host.
// Callers hold at least the read side of fw.mu; the cabinet has its own
// lock, and no cabinet path calls back into the firewall.
func (fw *Firewall) journalPark(p *pendingMsg, target uri.URI) {
	st := fw.cfg.Durable
	if st == nil || p.key != "" {
		return
	}
	key := parkKeyPrefix + strconv.FormatUint(fw.parkKeySeq.Add(1), 16)
	if err := st.Put(key, encodeParkRecord(p.senderPrincipal, target, p.bc)); err != nil {
		fw.record(vNote, telemetry.EventError, p.senderPrincipal, target.String(), "park journal: "+err.Error(), p.bc)
		return
	}
	p.key = key
}

// unjournalPark removes a consumed park entry from the cabinet (the
// message was delivered, expired, or dropped on close).
func (fw *Firewall) unjournalPark(p *pendingMsg) {
	if fw.cfg.Durable == nil || p.key == "" {
		return
	}
	_ = fw.cfg.Durable.Delete(p.key)
	p.key = ""
}

// journalDedup appends one observed frame hash to the cabinet, unsynced:
// it becomes durable at the host's next synced transaction. The slot's
// key is prebuilt, the value is the window's own buffer and the op stays
// on the stack, so the table's copy of the value is the only allocation.
func (fw *Firewall) journalDedup(slot int, sum uint64) {
	d := fw.dedup
	d.jmu.Lock()
	binary.LittleEndian.PutUint64(d.val[:], sum)
	op := [1]cabinet.Op{{Key: d.keys[slot], Value: d.val[:]}}
	_ = fw.cfg.Durable.CommitNoSync(op[:])
	d.jmu.Unlock()
}

// dedupKeys returns the cabinet keys of a window's n slots. Each is a
// substring of one string, written once into a buffer sized up front
// and never changed after, so a host that boots with a window costs two
// allocations however wide the window is.
func dedupKeys(n int) []string {
	var sb strings.Builder
	var digits [20]byte
	sb.Grow(n * (len(dedupKeyPrefix) + len(strconv.AppendInt(digits[:0], int64(n), 10))))
	keys := make([]string, n)
	for i := range keys {
		start := sb.Len()
		sb.WriteString(dedupKeyPrefix)
		sb.Write(strconv.AppendInt(digits[:0], int64(i), 10))
		keys[i] = sb.String()[start:]
	}
	return keys
}

// CrashWipe discards the firewall's volatile state, as losing power
// would: every registration (including the VMs' own, so in-flight agent
// state dies with the host), every parked message and its timer, the
// in-memory dedup window and the digest memo. The firewall object itself
// stays open — it models the machine, not the process — and the durable
// cabinet is untouched: RecoverDurable rebuilds from it after Restart.
func (fw *Firewall) CrashWipe() {
	regs, pend := fw.vacate()
	if fw.dedup != nil {
		fw.dedup.reset()
	}
	if fw.memo != nil {
		fw.memo.reset()
	}
	if fw.batch != nil {
		// Queued batch frames lived only in process memory; the crash
		// takes them with it (senders were never promised more — batched
		// forwards are fire-and-forget until flushed).
		fw.batch.discardAll()
	}
	fw.record(vNote, telemetry.EventDrop, "", "",
		fmt.Sprintf("host crash: wiped %d registrations, %d parked messages", len(regs), len(pend)), nil)
}

// RecoverDurable replays the cabinet's firewall tables into the live
// process after a Restart: the dedup window is re-seeded from the
// journaled hashes, and every journaled park entry is re-routed through
// normal mediation — delivered at once when its receiver has already
// re-registered, otherwise re-parked with a fresh timer so it either
// meets a later registration or expires through the typed-error path.
// Returns the number of park entries recovered. Call it after the
// host's services have re-registered, so recovered messages for them
// deliver instead of waiting out a timeout.
func (fw *Firewall) RecoverDurable() int {
	st := fw.cfg.Durable
	if st == nil {
		return 0
	}
	if fw.dedup != nil {
		for _, k := range st.Keys(dedupKeyPrefix) {
			if v, ok := st.Get(k); ok && len(v) == 8 {
				fw.dedup.seed(binary.LittleEndian.Uint64(v))
			}
		}
	}
	n := 0
	for _, key := range st.Keys(parkKeyPrefix) {
		v, ok := st.Get(key)
		if !ok {
			continue
		}
		// Consume the journal entry first: re-routing either delivers the
		// message or re-parks it under a fresh key. Advance the key
		// counter past every recovered key so fresh keys never collide.
		_ = st.Delete(key)
		if seq, err := strconv.ParseUint(key[len(parkKeyPrefix):], 16, 64); err == nil {
			for cur := fw.parkKeySeq.Load(); seq > cur && !fw.parkKeySeq.CompareAndSwap(cur, seq); {
				cur = fw.parkKeySeq.Load()
			}
		}
		principal, target, bc, err := decodeParkRecord(v)
		if err != nil {
			fw.record(vNote, telemetry.EventError, "", key, "bad park record: "+err.Error(), nil)
			continue
		}
		fw.record(vNote, telemetry.EventRecover, principal, target.String(), "park entry recovered from cabinet", bc)
		// dispatch re-mediates under whatever policy ruleset is active
		// after the restart: a policy-held park re-parks, re-forwards or
		// is denied afresh — the journal records no verdicts.
		if err := fw.dispatch(principal, target, bc); err != nil {
			fw.record(vNote, telemetry.EventError, principal, target.String(), "recovered park re-route: "+err.Error(), bc)
		}
		n++
	}
	return n
}
