package main

// Process-level readings taken from the operating system (Linux /proc and
// getrusage) and from the Go runtime's own accounting.

import (
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// cpuTimes is user and system CPU seconds consumed so far.
type cpuTimes struct{ User, Sys float64 }

func (c cpuTimes) total() float64 { return c.User + c.Sys }

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.User - o.User, c.Sys - o.Sys} }

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// selfCPU is this process's CPU time.
func selfCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{tvSeconds(ru.Utime), tvSeconds(ru.Stime)}
}

// pidCPU is a live process's CPU time from /proc/<pid>/stat.
func pidCPU(pid int) (cpuTimes, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return cpuTimes{}, err
	}
	// The command name is in parentheses and may hold spaces; the numeric
	// fields start after the last ')'. utime and stime are fields 14 and 15.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return cpuTimes{}, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return cpuTimes{}, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	const clockTick = 100 // USER_HZ is 100 on every Linux platform Go supports
	return cpuTimes{ut / clockTick, st / clockTick}, nil
}

// peakRSSMiB is the high-water mark of a live process's resident set, from
// VmHWM in /proc/<pid>/status ("self" for this process).
func peakRSSMiB(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("unparsable VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// gcCPU is the Go runtime's estimate of CPU seconds spent in the collector.
func gcCPU() float64 {
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return samples[0].Value.Float64()
}

// procWindow brackets a phase of this process and reports its CPU use.
type procWindow struct {
	cpu cpuTimes
	gc  float64
}

func startProcWindow() procWindow { return procWindow{cpu: selfCPU(), gc: gcCPU()} }

// report records proc.cpu_s, proc.sys_cpu_share and proc.gc_cpu_share for the
// phase since the window opened. childCPU is CPU burnt by child processes in
// the same phase; the collector's share is of this process's own CPU.
func (w procWindow) report(m metricSet, childCPU cpuTimes) {
	used := selfCPU().sub(w.cpu)
	all := used.total() + childCPU.total()
	m.put("proc.cpu_s", all, 1)
	if all > 0 {
		m.put("proc.sys_cpu_share", (used.Sys+childCPU.Sys)/all, 1)
	}
	if used.total() > 0 {
		m.put("proc.gc_cpu_share", (gcCPU()-w.gc)/used.total(), 1)
	}
}
