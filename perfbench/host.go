package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
)

// rtSample is a reading of the process-wide runtime counters the
// benchmark reports. None of them stops the world to read.
type rtSample struct {
	allocBytes uint64  // /gc/heap/allocs:bytes
	gcCPU      float64 // /cpu/classes/gc/total:cpu-seconds
	usedCPU    float64 // /cpu/classes/total minus /cpu/classes/idle
	stwCount   uint64  // pauses in /sched/pauses/total/{gc,other}:seconds
	stwSeconds float64 // their summed duration, from bucket midpoints
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
	"/sched/pauses/total/other:seconds",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var r rtSample
	for _, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			r.allocBytes = s.Value.Uint64()
		case metrics.KindFloat64:
			switch s.Name {
			case "/cpu/classes/gc/total:cpu-seconds":
				r.gcCPU = s.Value.Float64()
			case "/cpu/classes/total:cpu-seconds":
				r.usedCPU += s.Value.Float64()
			case "/cpu/classes/idle:cpu-seconds":
				r.usedCPU -= s.Value.Float64()
			}
		case metrics.KindFloat64Histogram:
			n, sec := histTotals(s.Value.Float64Histogram())
			r.stwCount += n
			r.stwSeconds += sec
		}
	}
	return r
}

// histTotals sums a runtime histogram's counts and estimates the sum of
// its values from bucket midpoints (the runtime exports no exact sum;
// an open-ended bucket contributes its finite edge).
func histTotals(h *metrics.Float64Histogram) (uint64, float64) {
	var n uint64
	var sum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case lo < -1e300:
			mid = hi
		case hi > 1e300:
			mid = lo
		}
		n += c
		sum += float64(c) * mid
	}
	return n, sum
}

// rtDelta is what happened between two samples.
type rtDelta struct {
	allocBytes float64
	gcCPU, cpu float64
	stwN       float64
	stwSeconds float64
}

func (d *rtDelta) add(o rtDelta) {
	d.allocBytes += o.allocBytes
	d.gcCPU += o.gcCPU
	d.cpu += o.cpu
	d.stwN += o.stwN
	d.stwSeconds += o.stwSeconds
}

func (b rtSample) since(a rtSample) rtDelta {
	return rtDelta{
		allocBytes: float64(b.allocBytes - a.allocBytes),
		gcCPU:      b.gcCPU - a.gcCPU,
		cpu:        b.usedCPU - a.usedCPU,
		stwN:       float64(b.stwCount - a.stwCount),
		stwSeconds: b.stwSeconds - a.stwSeconds,
	}
}

// resetPeakRSS starts a new resident-memory high-water mark, so that
// workloads run one after another in one process each get their own
// peak: freed heap goes back to the OS, then Linux resets VmHWM. It
// reports whether the reset took.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's resident-memory high-water mark since the
// last reset (VmHWM), or since start where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostInfo is recorded in every output so a figure can be traced to the
// machine and code that produced it.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentHost() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// commit names the code under test. run.sh sets PERFBENCH_COMMIT to the
// git revision, or to a digest of the Go sources in a checkout without
// git metadata.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
