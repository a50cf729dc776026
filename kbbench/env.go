package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envRecord describes the host and process of one run, so a drifting or
// noisy run can be explained afterwards. No run is discarded on its
// strength.
type envRecord struct {
	nproc, maxprocs int
	cpuModel        string
	goVersion       string
	commit          string
	stat0           []uint64 // /proc/stat cpu line at start
	cpu0            time.Duration
	stealPct        float64
	cpuSeconds      float64
}

func startEnv() *envRecord {
	return &envRecord{
		nproc:     runtime.NumCPU(),
		maxprocs:  runtime.GOMAXPROCS(0),
		cpuModel:  cpuModel(),
		goVersion: runtime.Version(),
		commit:    commit(),
		stat0:     procStat(),
		cpu0:      processCPU(),
	}
}

// finish closes the record and fills the run.* and runtime.* metrics.
func (e *envRecord) finish(b *bench) {
	if s1 := procStat(); len(e.stat0) > 7 && len(s1) == len(e.stat0) {
		var total uint64
		for i := range s1 {
			total += s1[i] - e.stat0[i]
		}
		if total > 0 {
			// Fields: user nice system idle iowait irq softirq steal ...
			e.stealPct = 100 * float64(s1[7]-e.stat0[7]) / float64(total)
		}
	}
	e.cpuSeconds = (processCPU() - e.cpu0).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.layer["run.cpu_s"] = e.cpuSeconds
	b.layer["run.steal_pct"] = e.stealPct
	b.layer["runtime.alloc_mb"] = float64(ms.TotalAlloc) / (1 << 20)
	b.layer["runtime.gc_cycles"] = float64(ms.NumGC)
}

func (e *envRecord) String() string {
	return fmt.Sprintf("env nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s steal_pct=%.2f cpu_s=%.2f",
		e.nproc, e.maxprocs, e.cpuModel, e.goVersion, e.commit, e.stealPct, e.cpuSeconds)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "-dirty"
		}
	}
	return rev + dirty
}

// procStat returns the counters of the aggregate cpu line of /proc/stat.
func procStat() []uint64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "cpu" {
			continue
		}
		out := make([]uint64, 0, len(fields)-1)
		for _, x := range fields[1:] {
			n, err := strconv.ParseUint(x, 10, 64)
			if err != nil {
				return nil
			}
			out = append(out, n)
		}
		return out
	}
	return nil
}

// cpuMeter measures the process CPU time of a stretch of the program's
// work, less the time the benchmark's own checks take inside it.
type cpuMeter struct{ start, checks time.Duration }

func startCPU() *cpuMeter { return &cpuMeter{start: processCPU()} }

// exclude runs fn, a check, off the meter.
func (m *cpuMeter) exclude(fn func()) {
	t := processCPU()
	fn()
	m.checks += processCPU() - t
}

// seconds is the CPU time since the start, checks excluded.
func (m *cpuMeter) seconds() float64 { return (processCPU() - m.start - m.checks).Seconds() }

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
