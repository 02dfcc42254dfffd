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
