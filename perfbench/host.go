package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// stealPerCPU returns the CPU time the hypervisor has withheld from this
// machine since boot — the "steal" column of /proc/stat — averaged over
// its CPUs, or 0 where it cannot be read (no /proc, no hypervisor).
//
// On a shared host, steal comes and goes with the neighbours' load and
// moves a closed loop's wall time by tens of percent from run to run.
// Subtracting the per-CPU steal of an interval from its wall time leaves
// the time the program had the machine, which is what a change to the
// program can move.
func stealPerCPU() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var steal, cpus int64
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 8 && f[0] == "cpu":
			if steal, err = strconv.ParseInt(f[8], 10, 64); err != nil {
				return 0
			}
		case len(f) > 0 && strings.HasPrefix(f[0], "cpu"):
			cpus++
		}
	}
	if cpus == 0 {
		return 0
	}
	// /proc/stat counts in USER_HZ ticks, 100 per second on Linux.
	return time.Duration(steal) * (time.Second / 100) / time.Duration(cpus)
}

// unstolen is a stopwatch that leaves out the per-CPU steal of the
// interval it times.
type unstolen struct {
	t0     time.Time
	steal0 time.Duration
}

func startUnstolen() unstolen { return unstolen{t0: time.Now(), steal0: stealPerCPU()} }

// elapsed returns the wall time since start less the steal within it.
func (u unstolen) elapsed() time.Duration {
	wall := time.Since(u.t0)
	if d := wall - (stealPerCPU() - u.steal0); d > 0 {
		return d
	}
	return wall
}
