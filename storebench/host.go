package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB is the process's resident set size in MB (10^6 bytes), read from
// /proc/self/statm (0 when unreadable).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / 1e6
}

// cpuTicks reads the aggregate steal and total jiffies from /proc/stat.
func cpuTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuModel is the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostRecord describes the machine a run measured on. It is printed with
// every run but gates nothing: it lets a noisy set of runs be traced to
// the host instead of the code.
type hostRecord struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	StealShare float64 `json:"steal_share"`
}

// stealMeter measures the share of CPU ticks the hypervisor stole.
type stealMeter struct{ steal, total uint64 }

func startSteal() stealMeter {
	s, t := cpuTicks()
	return stealMeter{s, t}
}

// share is the stolen share of all CPU ticks since the meter started.
func (m stealMeter) share() float64 {
	s, t := cpuTicks()
	if t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

func (m stealMeter) record() hostRecord {
	return hostRecord{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(), StealShare: m.share(),
	}
}
