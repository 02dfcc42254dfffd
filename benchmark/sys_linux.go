//go:build linux

package main

import (
	"syscall"
	"unsafe"
)

// getAffinity reads the calling thread's allowed-CPU mask.
func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, errno
	}
	return m, nil
}

// setAffinity restricts the calling thread to the mask. Threads the
// runtime already started keep their own masks, which is why the runner
// re-execs itself afterwards: exec keeps the calling thread's mask and
// every thread of the new image inherits it.
func setAffinity(m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// cpuTime returns the process's user+system CPU time in microseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Sec*1e6 + ru.Utime.Usec + ru.Stime.Sec*1e6 + ru.Stime.Usec
}

// offHeap returns a buffer the garbage collector does not know about:
// a multi-megabyte live slice on the Go heap would double the heap
// target and make collections rarer than they are for the program under
// test. T must hold no pointers.
func offHeap[T any](n int) []T {
	var zero T
	if n == 0 {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]T, 0, n)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)[:0]
}
