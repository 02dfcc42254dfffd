package main

import (
	"crypto/sha256"
	"time"
)

// refSink keeps the reference kernel's allocations reachable for a
// moment, so the compiler cannot drop them.
var refSink [][]byte

// refKernel is the drift fingerprint: a fixed SHA-256 + small-alloc
// loop. If its time moves between two runs, the machine changed, not
// the code.
func refKernel() time.Duration {
	var buf [4096]byte
	t0 := time.Now()
	refSink = refSink[:0]
	for i := 0; i < 4000; i++ {
		s := sha256.Sum256(buf[:])
		buf[i%len(buf)] = s[0]
		if i%8 == 0 {
			refSink = append(refSink, make([]byte, 64))
		}
	}
	return time.Since(t0)
}
