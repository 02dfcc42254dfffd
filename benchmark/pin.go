package main

import (
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"strconv"
	"strings"
)

// Environment variables of the pinning re-exec.
const (
	// envPinned marks a process that has been through pinSelf: the CPU
	// it is pinned to, or -1 when it deliberately runs unpinned.
	envPinned = "TAXPERF_PINNED"
	// envAllowed carries the CPU set the first process was allowed,
	// as hex words, so the unpinned side run can be given it back.
	envAllowed = "TAXPERF_ALLOWED"
)

// cpuMask is the kernel's cpu_set_t: 1024 CPUs, one bit each.
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

// highest returns the highest-numbered CPU in the mask, -1 when empty.
func (m *cpuMask) highest() int {
	for cpu := len(m)*64 - 1; cpu >= 0; cpu-- {
		if m.has(cpu) {
			return cpu
		}
	}
	return -1
}

// count returns the number of CPUs in the mask.
func (m *cpuMask) count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

func (m cpuMask) String() string {
	words := make([]string, len(m))
	for i, w := range m {
		words[i] = strconv.FormatUint(w, 16)
	}
	return strings.Join(words, ",")
}

func parseMask(s string) (cpuMask, bool) {
	var m cpuMask
	words := strings.Split(s, ",")
	if len(words) != len(m) {
		return m, false
	}
	for i, w := range words {
		v, err := strconv.ParseUint(w, 16, 64)
		if err != nil {
			return m, false
		}
		m[i] = v
	}
	return m, true
}

// pinOps are the three system operations pinSelf needs; the unit test
// substitutes a sched_setaffinity that is refused.
type pinOps struct {
	get  func() (cpuMask, error)
	set  func(cpuMask) error
	exec func(env []string) error // replaces the process; returns only on failure
}

// pinSelf implements harness rule 1: lock the OS thread, restrict it to
// the highest-numbered allowed CPU, and re-exec so that every runtime
// thread of the new image inherits the mask. It returns the pinned CPU
// in the re-exec'd process, and -1 (after a printed warning, without
// exec) where pinning is refused.
func pinSelf(ops pinOps, environ []string, warn io.Writer) int {
	for _, kv := range environ {
		if v, ok := strings.CutPrefix(kv, envPinned+"="); ok {
			cpu, err := strconv.Atoi(v)
			if err != nil {
				return -1
			}
			return cpu
		}
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	allowed, err := ops.get()
	cpu := -1
	if err == nil {
		cpu = allowed.highest()
		var one cpuMask
		if cpu < 0 {
			err = fmt.Errorf("empty CPU set")
		} else {
			one.set(cpu)
			err = ops.set(one)
		}
	}
	if err == nil {
		env := append(scrubEnv(environ), envPinned+"="+strconv.Itoa(cpu), envAllowed+"="+allowed.String())
		err = ops.exec(env)
		// The exec failed: this thread is pinned and the others are
		// not. Undo, so the unpinned run is at least uniformly so.
		_ = ops.set(allowed)
	}
	fmt.Fprintf(warn, "taxperf: warning: cannot pin to one CPU (%v); running unpinned, machine.pinned_cpu = -1\n", err)
	return -1
}

// scrubEnv drops the variables that would let the caller's environment
// change the runtime settings the harness fixes (rule 1).
func scrubEnv(environ []string) []string {
	out := make([]string, 0, len(environ)+2)
	for _, kv := range environ {
		name, _, _ := strings.Cut(kv, "=")
		switch name {
		case "GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG", envPinned, envAllowed:
			continue
		}
		out = append(out, kv)
	}
	return out
}
