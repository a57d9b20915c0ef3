// Command perfbench is the repository benchmark. It drives one
// workload against the testbed from a single process, prints every
// metric by name with its unit and sample count, checks the
// workload's correctness oracles, and ends with one JSON result line.
//
//	bash perfbench/run.sh --workload mqtt-wire --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 re-runs the
// workload untraced and then traced, records spans around the calls
// into each layer, and reports the per-layer metrics, the tracing
// overhead and the stage-sum check. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is what a workload run receives from the command line.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	out     string
}

type workload struct {
	name string
	run  func(cfg config, r *result) error
	// procs is the GOMAXPROCS the workload runs at, 0 for one per CPU:
	// whichever gave the steadier runs (README.md has the numbers).
	procs int
}

var workloads = []workload{
	{"mqtt-wire", runMQTTWire, 1},
	{"scene-rest", runSceneREST, 0},
	{"timewarp-swarm", runTimewarpSwarm, 1},
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the user-facing metrics of every workload, in report
// order. error_rate is printed and recorded but not part of the
// result line: it is 0 on every passing run, and failures already
// reach the result through correct/attempted/failed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A workload that does not
// reach a layer reports it as 0 with no samples.
var perLayer = []metricDef{
	{"broker.publish_call_us", "us"},
	{"broker.deliver_gap_us", "us"},
	{"broker.encode_ns", "ns"},
	{"broker.encode_allocs", "count"},
	{"broker.decode_ns", "ns"},
	{"broker.decode_allocs", "count"},
	{"broker.validate_ns", "ns"},
	{"broker.inproc_publish_us", "us"},
	{"broker.publishes_in", "count"},
	{"broker.messages_out", "count"},
	{"broker.dropped", "count"},
	{"broker.delivery_ratio", "ratio"},
	{"broker.duplicates", "count"},
	{"broker.reordered", "count"},
	{"broker.status_gap_us", "us"},
	{"rest.status_call_us", "us"},
	{"rest.handler_us", "us"},
	{"rest.transport_us", "us"},
	{"rest.patch_call_us", "us"},
	{"model.get_us", "us"},
	{"model.commits_per_s", "1/s"},
	{"digi.reconcile_us", "us"},
	{"core.start_ms", "ms"},
	{"core.run_ms", "ms"},
	{"core.attach_ms", "ms"},
	{"trace.records_per_op", "count"},
	{"profile.compile_ms", "ms"},
	{"profile.nextfire_ns", "ns"},
	{"swarm.pool_publish_us", "us"},
	{"swarm.bridge_forwards_per_msg", "ratio"},
	{"swarm.shard_skew", "ratio"},
	{"swarm.published", "count"},
	{"swarm.delivered", "count"},
	{"swarm.lost", "count"},
	{"swarm.dropped", "count"},
	{"clock.compression_x", "ratio"},
	{"proc.cpu_util", "cpu-s/s"},
	{"proc.allocs_per_op", "count"},
	{"proc.bytes_per_op", "B"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.goroutines", "count"},
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result collects a run's metrics and oracle verdicts.
type result struct {
	workload string
	seed     int64
	traced   bool

	e2es, layers, diags []metric
	attempted, failed   int64
	errs                []string
}

func (r *result) e2e(name, unit string, v float64, n int) {
	r.e2es = append(r.e2es, metric{name, v, unit, n})
}

func (r *result) layer(name, unit string, v float64, n int) {
	r.layers = append(r.layers, metric{name, v, unit, n})
}

// diag records a diagnostic: printed and kept in the run record, never
// gated.
func (r *result) diag(name, unit string, v float64, n int) {
	r.diags = append(r.diags, metric{name, v, unit, n})
}

func (r *result) tailDiag(prefix string, xs []float64) {
	p, v, ok := tail(xs)
	if !ok {
		return
	}
	r.diag("tail."+prefix+pctName(p)+"_ms", "ms", v, len(xs))
}

// check records an oracle verdict; a false one fails the run.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func find(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 for the traced per-layer run")
		out     = flag.String("out", ".bench_build", "directory for run records and spans")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	// A run that hangs must still end, inside three minutes.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170 s")
		os.Exit(3)
	})

	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace == 1, out: *out}
	r := &result{workload: w.name, seed: *seed, traced: cfg.traced}
	if err := w.run(cfg, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if rss, err := peakRSS(); err == nil {
		r.e2e("peak_rss_mb", "MB", float64(rss)/(1<<20), 1)
	} else {
		r.check(false, "read peak RSS: %v", err)
	}
	report(r)
	if err := writeRecord(cfg, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run record: %v\n", err)
	}
	line, err := resultLine(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if len(r.errs) > 0 {
		os.Exit(1)
	}
}

// report prints every metric by name with unit and sample count.
func report(r *result) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Printf("== %s seed=%d (%s) nproc=%d GOMAXPROCS=%d %s\n",
		r.workload, r.seed, mode, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	show := func(kind string, ms []metric) {
		for _, m := range ms {
			fmt.Printf("%-6s %-34s %14.6g %-8s n=%d\n", kind, m.Name, m.Value, m.Unit, m.Samples)
		}
	}
	show("e2e", r.e2es)
	if r.traced {
		for _, def := range perLayer {
			if m, ok := find(r.layers, def.name); ok {
				show("layer", []metric{m})
			} else {
				fmt.Printf("%-6s %-34s %14s %-8s n=0\n", "layer", def.name, "n/a", def.unit)
			}
		}
	}
	show("diag", r.diags)
	fmt.Printf("attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, e := range r.errs {
		fmt.Printf("ORACLE FAILED: %s\n", e)
	}
}

// resultLine renders the result object: the end-to-end
// metrics on an untraced run, every per-layer metric on a traced one.
func resultLine(r *result) (string, error) {
	metrics := map[string]map[string]any{}
	if r.traced {
		for _, def := range perLayer {
			m, _ := find(r.layers, def.name)
			metrics[def.name] = map[string]any{"value": finite(m.Value), "unit": def.unit}
		}
	} else {
		for _, def := range endToEnd {
			m, ok := find(r.e2es, def.name)
			if !ok || !(m.Value > 0) || math.IsInf(m.Value, 0) {
				return "", fmt.Errorf("end-to-end metric %s missing or not positive (%v)", def.name, m.Value)
			}
			metrics[def.name] = map[string]any{"value": m.Value, "unit": def.unit}
		}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   len(r.errs) == 0,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   metrics,
	})
	return string(out), err
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// writeRecord saves the run record: identity, environment, and every
// metric with unit and sample count.
func writeRecord(cfg config, r *result) error {
	errRate, _ := find(r.diags, "error_rate")
	rec := map[string]any{
		"commit":          sourceID(),
		"workload":        r.workload,
		"seed":            r.seed,
		"traced":          r.traced,
		"seconds":         cfg.seconds,
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
		"network":         "loopback only: every socket is on 127.0.0.1, no real link",
		"end_to_end":      r.e2es,
		"per_layer":       r.layers,
		"diagnostic":      r.diags,
		"error_rate":      errRate.Value,
		"attempted":       r.attempted,
		"failed":          r.failed,
		"oracle_failures": append([]string{}, r.errs...),
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if r.traced {
		mode = "traced"
	}
	path := filepath.Join(cfg.out, "records", fmt.Sprintf("%s-seed%d-%s.json", r.workload, r.seed, mode))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fmt.Printf("record: %s\n", path)
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// e2eMetrics records a pass's end-to-end timing metrics.
func e2eMetrics(r *result, m map[string]metric) {
	for _, def := range endToEnd {
		if v, ok := m[def.name]; ok {
			r.e2e(def.name, def.unit, v.Value, v.Samples)
		}
	}
}

// setUp runs a workload's set-up n times (once on a traced run),
// closing every bed but the last, and returns the last with each
// set-up's duration in seconds.
func setUp[B interface{ close() }](cfg config, n int, newBed func() (B, time.Duration, error)) (B, []float64, error) {
	if cfg.traced {
		n = 1
	}
	var b B
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			b.close()
		}
		settle()
		next, d, err := newBed()
		if err != nil {
			return next, nil, fmt.Errorf("set-up: %w", err)
		}
		b = next
		times = append(times, d.Seconds())
	}
	return b, times, nil
}

// setupMetric records setup_s as the median of a run's set-ups.
func setupMetric(r *result, times []float64) {
	r.e2e("setup_s", "s", median(times), len(times))
	r.diag("setup.min_s", "s", quantile(times, 0), len(times))
	r.diag("setup.max_s", "s", quantile(times, 1), len(times))
}

// settle collects the garbage earlier set-ups and passes left, so each
// measurement starts from the same heap state and its GC work is its
// own.
func settle() { runtime.GC() }

// overhead records, per end-to-end metric, how much the traced pass
// differs from the untraced pass of the same run.
func overhead(r *result, untraced, traced map[string]metric) {
	for _, name := range sortedKeys(untraced) {
		u, t := untraced[name].Value, traced[name].Value
		r.diag("trace_overhead."+name, "ratio", (t-u)/u, 1)
	}
}

// stageSumTolerance is how far the traced stage medians may sum from
// the untraced end-to-end median before the check is flagged.
const stageSumTolerance = 0.25

// stageSum compares the sum of the traced stage medians with the
// untraced end-to-end median (both in ms) and prints the gap.
func stageSum(r *result, stages string, sumMs, e2eMs float64) {
	gap := (sumMs - e2eMs) / e2eMs
	r.diag("stage_sum.gap", "ratio", gap, 1)
	verdict := "within"
	if math.Abs(gap) > stageSumTolerance {
		verdict = "OUTSIDE"
	}
	fmt.Printf("stage-sum: %s = %.4f ms vs untraced p50 %.4f ms: gap %+.1f%% (%s ±%.0f%%)\n",
		stages, sumMs, e2eMs, 100*gap, verdict, 100*stageSumTolerance)
}

// finishTrace writes the spans out and records each span name's
// median self time as a diagnostic.
func finishTrace(cfg config, r *result, tr *tracer) error {
	path := filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("spans: %s\n", path)
	self := tr.selfTimes()
	for _, name := range sortedKeys(self) {
		r.diag("self_us."+name, "us", median(self[name]), len(self[name]))
	}
	return nil
}
