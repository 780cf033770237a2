package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// On a virtual machine the hypervisor can take the CPUs away ("steal"),
// and on a shared host how much it takes swings by tens of percent from
// minute to minute. Every gated time is therefore host time: wall time
// less the share of it the kernel reports stolen. The raw wall-clock
// figures are kept beside them, ungated. Where the kernel reports no
// steal the two are equal.

// clockTick is the unit of /proc/stat (USER_HZ), 100 Hz on Linux.
const clockTick = 10 * time.Millisecond

// stolen returns the CPU time stolen from this machine, summed over its
// CPUs, since boot (the "steal" column of /proc/stat), or 0 where the
// kernel does not report it.
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * clockTick
}

// hostClock times an interval in wall time and in steal.
type hostClock struct {
	t0 time.Time
	s0 time.Duration
}

func startClock() hostClock { return hostClock{t0: time.Now(), s0: stolen()} }

// share returns the interval's wall time and the fraction of it the
// hypervisor took, averaged over the CPUs. The fraction is capped below
// 1, since the tick-granular steal count can overshoot a short interval.
func (c hostClock) share() (time.Duration, float64) {
	wall := time.Since(c.t0)
	s := float64(stolen()-c.s0) / (float64(runtime.NumCPU()) * float64(wall))
	return wall, min(max(s, 0), 0.9)
}
