package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (the rule numpy and Python's "inclusive"
// method use). xs need not be sorted; it is not modified. An empty
// input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
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

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder is the percentile ladder a tail is read from, highest
// last.
var tailLadder = []float64{50, 90, 95, 99, 99.9, 99.99}

// tail picks the highest percentile on tailLadder that still has at
// least ten samples beyond it, so a reported tail is never one or two
// outliers. It returns the percentile, its value, and false when even
// the median has fewer than ten samples beyond it.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := float64(len(xs))
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		// The tolerance absorbs rounding in 100-p (99.9 is inexact).
		if n*(100-p)/100 >= 10-1e-9 {
			return p, quantile(xs, p/100), true
		}
	}
	return 0, math.NaN(), false
}

// pctName renders a percentile as a metric-name fragment: 99 → "p99",
// 99.9 → "p99.9".
func pctName(p float64) string {
	return "p" + strconv.FormatFloat(p, 'f', -1, 64)
}

// cpuTime returns the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// parseVmHWM reads the VmHWM line (peak resident set) from a
// /proc/<pid>/status document and returns it in bytes.
func parseVmHWM(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line[len("VmHWM:"):])
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("perfbench: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("perfbench: malformed VmHWM line %q: %w", line, err)
		}
		return kb * 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("perfbench: no VmHWM line")
}

// peakRSS returns the process's peak resident set size in bytes.
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

// procSnap is a point-in-time reading of the process's costs; the
// difference of two snapshots prices the work between them.
type procSnap struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	numGC   uint32
	pauseNs uint64
}

func takeProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		wall:    time.Now(),
		cpu:     cpuTime(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		numGC:   ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

// procDelta is the cost of the work between two snapshots.
type procDelta struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
}

func (a procSnap) to(b procSnap) procDelta {
	return procDelta{
		wall:     b.wall.Sub(a.wall),
		cpu:      b.cpu - a.cpu,
		mallocs:  b.mallocs - a.mallocs,
		bytes:    b.bytes - a.bytes,
		gcCycles: b.numGC - a.numGC,
		gcPause:  time.Duration(b.pauseNs - a.pauseNs),
	}
}

// addProcMetrics records the proc layer for ops operations done
// during d.
func addProcMetrics(r *result, d procDelta, ops int64) {
	r.layer("proc.cpu_util", "cpu-s/s", d.cpu.Seconds()/d.wall.Seconds(), int(ops))
	r.layer("proc.allocs_per_op", "count", float64(d.mallocs)/float64(ops), int(ops))
	r.layer("proc.bytes_per_op", "B", float64(d.bytes)/float64(ops), int(ops))
	r.layer("proc.gc_cycles", "count", float64(d.gcCycles), int(ops))
	r.layer("proc.gc_pause_ms", "ms", float64(d.gcPause)/1e6, int(d.gcCycles))
	r.layer("proc.goroutines", "count", float64(runtime.NumGoroutine()), 1)
}

func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
