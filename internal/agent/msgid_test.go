package agent

import (
	"fmt"
	"math"
	"testing"
)

// TestMsgIDMatchesFmt: msgID prints what fmt's "m%016x" printed, so the
// ids, and the transfer times their bytes feed, are unchanged.
func TestMsgIDMatchesFmt(t *testing.T) {
	for _, n := range []uint64{0, 1, 1 << 32, math.MaxUint64} {
		if got, want := msgID(n), fmt.Sprintf("m%016x", n); got != want {
			t.Errorf("msgID(%d) = %q, want %q", n, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { sinkID = nextMsgID() }); n != 1 {
		t.Errorf("nextMsgID costs %v allocations, want 1", n)
	}
}

var sinkID string
