package bench

import "testing"

// TestForwardingBatchedSpeedup is the acceptance gate for the 3-hop
// zero-copy forwarding bench: containers of verbatim-forwarded frames
// must deliver at least 5× the end-to-end virtual-clock throughput of
// per-message relaying on the same chain, and both modes must actually
// take the relay fast path (every message crosses each relay's
// fw.relayed counter; the batched run crosses as whole containers).
func TestForwardingBatchedSpeedup(t *testing.T) {
	unbatched, err := hotpathForwarding(false)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := hotpathForwarding(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []HotpathForwardingResult{unbatched, batched} {
		if r.RelayedPerHop != int64(r.Messages) {
			t.Errorf("batched=%v: relays forwarded %d of %d frames — some took the decode path",
				r.Batched, r.RelayedPerHop, r.Messages)
		}
	}
	if unbatched.ContainersPerHop != 0 {
		t.Errorf("unbatched run forwarded %d containers, want 0", unbatched.ContainersPerHop)
	}
	if batched.ContainersPerHop == 0 {
		t.Error("batched run forwarded no containers: composition with batching is broken")
	}
	if unbatched.MsgsPerVirtualSec <= 0 || batched.MsgsPerVirtualSec <= 0 {
		t.Fatalf("degenerate throughput: unbatched %.0f, batched %.0f",
			unbatched.MsgsPerVirtualSec, batched.MsgsPerVirtualSec)
	}
	ratio := batched.MsgsPerVirtualSec / unbatched.MsgsPerVirtualSec
	if ratio < 5 {
		t.Errorf("batched forwarding is %.2fx unbatched, acceptance floor is 5x (%.0f vs %.0f msgs/vsec)",
			ratio, batched.MsgsPerVirtualSec, unbatched.MsgsPerVirtualSec)
	}
	t.Logf("3-hop forwarding: unbatched %.0f, batched %.0f msgs/vsec (%.2fx)",
		unbatched.MsgsPerVirtualSec, batched.MsgsPerVirtualSec, ratio)
}

// TestGroupCommitFsyncAmortization pins the bench-side fsync counts:
// window 1 degenerates to one fsync per transaction, window 64
// amortizes the same stream to ceil(192/64) = 3.
func TestGroupCommitFsyncAmortization(t *testing.T) {
	serial, err := hotpathGroupCommit(1)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Fsyncs != int64(serial.Txns) {
		t.Errorf("window 1: %d fsyncs for %d txns, want one per txn", serial.Fsyncs, serial.Txns)
	}
	wide, err := hotpathGroupCommit(64)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Fsyncs != 3 {
		t.Errorf("window 64: %d fsyncs for %d txns, want 3", wide.Fsyncs, wide.Txns)
	}
	if wide.WriteCostMS >= serial.WriteCostMS {
		t.Errorf("window 64 write cost %.1f ms not below window 1's %.1f ms",
			wide.WriteCostMS, serial.WriteCostMS)
	}
}

// TestPathStageAllocs sanity-checks the per-stage allocation rows the
// JSON records: a relay's whole inbound stage must cost less than one
// lazy decode of the same frame (the header-only claim), all four
// stages must be present, and delivery and decode stay within their
// budgets.
func TestPathStageAllocs(t *testing.T) {
	rows, err := hotpathPath()
	if err != nil {
		t.Fatal(err)
	}
	byStage := map[string]float64{}
	for _, r := range rows {
		byStage[r.Stage] = r.AllocsPerOp
	}
	for _, stage := range []string{"origin", "relay", "deliver", "decode"} {
		if _, ok := byStage[stage]; !ok {
			t.Fatalf("path rows missing stage %q", stage)
		}
	}
	if byStage["relay"] >= byStage["decode"] {
		t.Errorf("relay stage allocates %.0f >= decode's %.0f: the relay cannot be header-only",
			byStage["relay"], byStage["decode"])
	}
	// A decode is three structural allocations (briefcase, folder
	// chunk, folder list) and one string per folder name; delivery adds
	// routing and the mailbox hand-off, and reads _TARGET and _SENDER
	// through the address intern table without a copy.
	for stage, budget := range map[string]float64{"deliver": 7, "decode": 6} {
		if byStage[stage] > budget {
			t.Errorf("%s stage allocates %.0f, budget %.0f", stage, byStage[stage], budget)
		}
	}
}
