package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// tailQuantile is the 0.9 quantile when at least ten samples lie
// beyond it, else the highest quantile that leaves ten beyond, else the
// maximum. It returns the quantile used, so callers can log it.
func tailQuantile(xs []float64) (float64, float64) {
	q := 0.9
	if n := float64(len(xs)); n*(1-q) < 10 {
		q = 1 - 10/n
	}
	if q < 0.5 {
		q = 1
	}
	return quantile(xs, q), q
}

// runtimeSample is the process's allocation and GC counters at one
// instant, from runtime/metrics.
type runtimeSample struct {
	cpu        time.Duration // user+sys CPU of the process (getrusage)
	allocBytes float64
	allocObjs  float64
	gcCPU      float64 // GC CPU seconds, idle-priority mark workers excluded
	busyCPU    float64 // non-idle CPU seconds, in the runtime's accounting
	gcCycles   float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/gc/mark/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// sampleRuntime reads the process's CPU time and runtime counters.
func sampleRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	val := func(i int) float64 {
		switch ms[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ms[i].Value.Uint64())
		case metrics.KindFloat64:
			return ms[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{cpu: processCPU(),
		allocBytes: val(0), allocObjs: val(1), gcCPU: val(2) - val(3), gcCycles: val(4), busyCPU: val(5) - val(6)}
}

// processCPU returns this process's user+sys CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// delta is the difference between two runtime samples.
type delta struct {
	cpu                        float64 // seconds
	allocMB, allocObjsM, gcCPU float64
	busyCPU, gcCycles          float64
}

func diff(a, b runtimeSample) delta {
	return delta{
		cpu:        (b.cpu - a.cpu).Seconds(),
		allocMB:    (b.allocBytes - a.allocBytes) / 1e6,
		allocObjsM: (b.allocObjs - a.allocObjs) / 1e6,
		gcCPU:      b.gcCPU - a.gcCPU,
		busyCPU:    b.busyCPU - a.busyCPU,
		gcCycles:   b.gcCycles - a.gcCycles,
	}
}

// hostCPU is the guest's aggregate vCPU accounting from the first
// line of /proc/stat, in ticks: time spent running anything (user,
// nice, system, irq, softirq) and time the hypervisor held a runnable
// vCPU off the host's cores (steal). The kernel charges stolen ticks
// to steal instead of to the task that was interrupted.
type hostCPU struct{ busy, steal float64 }

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fs := strings.Fields(line)
	if len(fs) < 9 || fs[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("/proc/stat: no aggregate cpu line")
	}
	var v [8]float64
	for i := range v {
		if v[i], err = strconv.ParseFloat(fs[i+1], 64); err != nil {
			return hostCPU{}, fmt.Errorf("/proc/stat: %v", err)
		}
	}
	// user nice system idle iowait irq softirq steal
	return hostCPU{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// stopwatch times an interval both as plain wall time and as the wall
// time the work would have taken had the hypervisor not stolen CPU
// from the VM's vCPUs. A shared host steals a varying share of the
// vCPUs' time; left in, that share swings wall times by more than any
// change to the program would, and it does not depend on the program.
type stopwatch struct {
	t0 time.Time
	c0 hostCPU
}

func startWatch() stopwatch {
	c, err := readHostCPU()
	if err != nil {
		fail("%v", err)
	}
	return stopwatch{t0: time.Now(), c0: c}
}

// elapsed returns the interval's wall seconds and its steal-free wall
// seconds, wall × busy/(busy+steal) over the guest's vCPU ticks of the
// interval: stolen ticks only accrue on vCPUs that had work, so this
// is the wall time at the interval's own parallelism with the stolen
// share given back. An interval shorter than a tick is returned as is.
func (w stopwatch) elapsed() (wall, ran float64) {
	wall = time.Since(w.t0).Seconds()
	c, err := readHostCPU()
	if err != nil {
		fail("%v", err)
	}
	busy, steal := c.busy-w.c0.busy, c.steal-w.c0.steal
	if busy+steal <= 0 {
		return wall, wall
	}
	return wall, wall * busy / (busy + steal)
}

// procStatusMB reads a kB field (VmHWM, VmRSS) of /proc/<pid>/status
// in MB; pid "self" reads this process.
func procStatusMB(pid, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(ln, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %v", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status: no %s", pid, field)
}

// resetPeakRSS makes /proc/<pid>/status VmHWM restart from the current
// RSS (Linux 4.0+), so a later read gives the peak since this call.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// CPU times on Linux.
const clockTicks = 100

// procCPU reads another process's user+sys CPU seconds from
// /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis, starting at field 3 (state).
	s := string(b)
	fs := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fs) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	ut, err1 := strconv.ParseFloat(fs[11], 64) // field 14 utime
	st, err2 := strconv.ParseFloat(fs[12], 64) // field 15 stime
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return (ut + st) / clockTicks, nil
}
