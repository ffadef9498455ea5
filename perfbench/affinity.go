package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// On a host of a few CPUs the kernel moves the serving processes between
// CPUs as it sees fit, and whether a request's hops wake a process on the
// same CPU or on another decides much of what a small op costs. That
// placement holds for tens of seconds and then changes, which moved the
// CPU per op of replay-hot by a fifth from one run to the next. A pinned
// workload therefore runs its serving processes on one CPU and the
// driver on the others, so every run places them the same way.

// cpuMask is a sched_setaffinity mask over up to 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func (m *cpuMask) cpus() []int {
	var out []int
	for c := 0; c < len(m)*64; c++ {
		if m.has(c) {
			out = append(out, c)
		}
	}
	return out
}

// setAffinity pins thread tid (0: the calling thread) to m.
func setAffinity(tid int, m *cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// pinning splits the CPUs the driver may use: the serving processes get
// the last, the driver keeps the rest. With fewer than two CPUs nothing
// is pinned.
type pinning struct {
	servers, driver cpuMask
	ok              bool
}

func newPinning() pinning {
	var all cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(all), uintptr(unsafe.Pointer(&all)))
	cpus := all.cpus()
	if e != 0 || len(cpus) < 2 {
		return pinning{}
	}
	var p pinning
	p.servers.set(cpus[len(cpus)-1])
	for _, c := range cpus[:len(cpus)-1] {
		p.driver.set(c)
	}
	p.ok = true
	return p
}

// pinDriver moves every thread of the driver onto its CPUs; threads it
// starts later inherit the mask.
func (p *pinning) pinDriver() error {
	if !p.ok {
		return nil
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			return err
		}
		if err := setAffinity(tid, &p.driver); err != nil && err != syscall.ESRCH {
			return err
		}
	}
	runtime.GOMAXPROCS(len(p.driver.cpus()))
	return nil
}

// start starts cmd on the servers' CPU: the child inherits the mask of
// the thread that forks it. The Go runtime of a serving process sizes
// GOMAXPROCS to that one CPU.
func (p *pinning) start(cmd *exec.Cmd) error {
	if !p.ok {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, &p.servers); err != nil {
		return err
	}
	err := cmd.Start()
	if rerr := setAffinity(0, &p.driver); err == nil {
		err = rerr
	}
	return err
}
