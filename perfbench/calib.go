package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The machine these numbers come from is a 2-CPU virtual machine shared
// with other guests. Their load changes the speed of every instruction
// the benchmark runs, not only its wall time: the CPU time of one
// request moved by 15-30% between runs of one build and seed, drifting
// over tens of seconds. The calibration loop measures that speed inside
// each run. It is fixed code that never changes with the program, does
// not allocate (so the program's garbage does not slow it), and is timed
// on its own thread's CPU clock (so collector work of the program on
// other threads is not counted). Each timed span's CPU time is scaled
// by calNominal / (median of the last calWindow calibration times): on
// a machine that runs the loop in calNominal the scaled figures are
// plain CPU times.

// calNominal is the calibration loop's CPU time the scaled times are
// expressed against (close to its uncontended time on the 2-CPU machine
// the committed numbers come from).
const calNominal = 5 * time.Millisecond

// calEvery is how often a run samples the calibration loop, and
// calWindow how many recent samples scale a span, so the scale follows
// the machine's drift over about a second.
const (
	calEvery  = 250 * time.Millisecond
	calWindow = 5
)

var (
	calWalk = make([]uint64, 1<<18) // 2 MiB, larger than L2
	calVec  = make([]float64, 1<<15)
	calSink uint64
)

// calLoop runs the fixed calibration work once.
func calLoop() {
	x := uint64(88172645463325252)
	var s uint64
	mask := uint64(len(calWalk) - 1)
	for i := 0; i < 400_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		calWalk[j] += s
		s += calWalk[(j*7)&mask]
	}
	f := 0.0
	for r := 0; r < 20; r++ {
		for i := range calVec {
			calVec[i] = calVec[i]*0.999 + float64(i)*1e-9
			f += calVec[i]
		}
	}
	calSink += s + uint64(f)
}

// calibration collects one run's calibration samples.
type calibration struct {
	samples []float64 // ms of thread CPU time per loop
	last    time.Time
}

// sample times one calibration loop on the calling thread's CPU clock.
func (c *calibration) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPUTime()
	calLoop()
	c.samples = append(c.samples, ms(threadCPUTime()-t0))
	c.last = time.Now()
}

// maybe samples when calEvery has passed since the last sample.
func (c *calibration) maybe() {
	if time.Since(c.last) >= calEvery {
		c.sample()
	}
}

// factor is the scale from CPU times measured now to calibrated ones.
func (c *calibration) factor() float64 {
	recent := c.samples[max(0, len(c.samples)-calWindow):]
	return ms(calNominal) / quantile(recent, 0.5)
}

// threadCPUTime returns the CPU time of the calling OS thread.
func threadCPUTime() time.Duration { return clockTime(3) } // CLOCK_THREAD_CPUTIME_ID

// cpuTime returns the CPU time the whole process has used.
func cpuTime() time.Duration { return clockTime(2) } // CLOCK_PROCESS_CPUTIME_ID

// clockTime reads a CPU-time clock, which package syscall does not wrap.
func clockTime(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
