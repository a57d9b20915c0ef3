package main

import "time"

// Throughput and CPU cost are computed per window of wall time and
// reported as the median over windows, so a stretch of the run that
// another tenant of the host slowed moves one window, not the run.

// epoch is the zero of the benchmark's monotonic timestamps.
var epoch = time.Now()

// now returns nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// tick is one reading of a run's progress at a window boundary.
type tick struct {
	at    int64
	cpu   time.Duration
	count int64
}

// sampleTicks reads the time, the process CPU and count at the start
// and then every window until done is closed. A trailing partial
// window is dropped unless it is the only one.
func sampleTicks(count func() int64, window time.Duration, done <-chan struct{}) []tick {
	read := func() tick { return tick{now(), cpuTime(), count()} }
	ts := []tick{read()}
	t := time.NewTicker(window)
	defer t.Stop()
	for {
		select {
		case <-done:
			if len(ts) == 1 {
				ts = append(ts, read())
			}
			return ts
		case <-t.C:
			ts = append(ts, read())
		}
	}
}

// rates returns each window's count per second.
func rates(ts []tick) []float64 {
	var out []float64
	for i := 1; i < len(ts); i++ {
		out = append(out, float64(ts[i].count-ts[i-1].count)/(float64(ts[i].at-ts[i-1].at)/1e9))
	}
	return out
}

// cpuPerOp returns each window's process CPU in µs per counted op.
func cpuPerOp(ts []tick) []float64 {
	var out []float64
	for i := 1; i < len(ts); i++ {
		if n := ts[i].count - ts[i-1].count; n > 0 {
			out = append(out, float64((ts[i].cpu-ts[i-1].cpu).Microseconds())/float64(n))
		}
	}
	return out
}
