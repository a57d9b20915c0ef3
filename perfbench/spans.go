package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the ID of the enclosing span (0 for a
// root). Times are nanoseconds since epoch.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of every sampled operation in memory until
// the run ends. A nil *tracer is the untraced run: sampled reports
// false and nothing is recorded, so both runs share one code path.
type tracer struct {
	every int64

	mu    sync.Mutex
	spans []span
}

func newTracer(every int64) *tracer {
	return &tracer{every: every}
}

// sampled reports whether operation op is traced (every Nth op).
func (t *tracer) sampled(op int64) bool {
	return t != nil && op%t.every == 0
}

// add records a finished span and returns its ID for use as a parent.
func (t *tracer) add(name string, op int64, parent int32, start, end time.Time) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(epoch).Nanoseconds(),
		End:   end.Sub(epoch).Nanoseconds(),
	})
	return id
}

// durations returns the duration in µs of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfTimes returns, per span name, each span's self time in µs: its
// duration minus the part of it that its child spans cover.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTimes(t.spans)
}

func selfTimes(spans []span) map[string][]float64 {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		covered := coverage(s, children[s.ID])
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e3)
	}
	return out
}

// coverage is the length of the union of the children's intervals,
// clipped to the parent's.
func coverage(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
