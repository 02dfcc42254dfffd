//go:build !linux

package main

import "errors"

// Off Linux there is no sched_setaffinity: pinSelf warns, the run stays
// unpinned and reports machine.pinned_cpu = -1.
var errNoAffinity = errors.New("sched_setaffinity is Linux-only")

func getAffinity() (cpuMask, error) { return cpuMask{}, errNoAffinity }
func setAffinity(cpuMask) error     { return errNoAffinity }
func cpuTime() int64                { return 0 }
func offHeap[T any](n int) []T      { return make([]T, 0, n) }
