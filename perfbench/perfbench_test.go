package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/profile"
	"repro/internal/swarm"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64 // 0: no tail
	}{
		{9, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		p, v, ok := tail(xs)
		if c.want == 0 {
			if ok {
				t.Errorf("n=%d: got p%v, want no tail", c.n, p)
			}
			continue
		}
		if !ok || p != c.want {
			t.Errorf("n=%d: got p%v (ok=%v), want p%v", c.n, p, ok, c.want)
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond, p)
		}
	}
	if got := pctName(99.9); got != "p99.9" {
		t.Errorf("pctName(99.9) = %q", got)
	}
}

func TestParseVmHWM(t *testing.T) {
	doc := "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n"
	got, err := parseVmHWM(strings.NewReader(doc))
	if err != nil || got != 12345*1024 {
		t.Fatalf("parseVmHWM = %d, %v; want %d", got, err, 12345*1024)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) accepted a malformed document", bad)
		}
	}
	rss, err := peakRSS()
	if err != nil || rss <= 0 {
		t.Fatalf("peakRSS = %d, %v", rss, err)
	}
}

func TestCPUTimeAdvancesWithWork(t *testing.T) {
	before := cpuTime()
	deadline := time.Now().Add(50 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	if got := cpuTime() - before; got < 20*time.Millisecond {
		t.Fatalf("50 ms of spinning charged %v of CPU (x=%d)", got, x)
	}
}

func TestSeqChecker(t *testing.T) {
	c := newSeqChecker(2)
	for _, d := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {0, 2}, {1, 1}} {
		c.observe(d[0], d[1])
	}
	if c.dups != 0 || c.reord != 0 || c.lost([]int{3, 2}) != 0 {
		t.Fatalf("clean stream: dups=%d reord=%d lost=%d", c.dups, c.reord, c.lost([]int{3, 2}))
	}
	c.observe(0, 1) // again
	c.observe(1, 3) // skips 2
	c.observe(1, 2) // late
	if c.dups != 1 || c.reord != 1 {
		t.Fatalf("dups=%d reord=%d, want 1 and 1", c.dups, c.reord)
	}
	if got := c.lost([]int{5, 4}); got != 2 {
		t.Fatalf("lost = %d, want 2 (topic 0 seqs 3 and 4)", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
	}
	got := selfTimes(spans)
	if want := float64(100-50-10) / 1e3; got["root"][0] != want {
		t.Errorf("root self = %v µs, want %v", got["root"][0], want)
	}
	if got["a"][0] != 0.03 {
		t.Errorf("leaf self = %v µs, want its duration", got["a"][0])
	}
}

// testTraffic walks a short window of the benchmark's profile.
func testTraffic(t *testing.T, seed int64, window time.Duration, fn func(topic string, payload []byte)) *profile.Profile {
	t.Helper()
	p, err := profile.Parse(cityProfileYAML)
	if err != nil {
		t.Fatal(err)
	}
	s, err := profile.Compile(p, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	err = profile.Walk(p, 0, seed, window, func(d int, _ time.Duration, payload []byte) {
		fn(s.DeviceTopic(swarmPrefix, d), payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDigestOracleFailsCorruptedTap proves the timewarp-swarm oracle
// accepts the schedule's own traffic, in any cross-topic interleaving,
// and fails the run on a corrupted, missing or reordered message.
func TestDigestOracleFailsCorruptedTap(t *testing.T) {
	const seed, window = 3, 5 * time.Second
	type msg struct {
		topic   string
		payload []byte
	}
	var msgs []msg
	p := testTraffic(t, seed, window, func(topic string, payload []byte) {
		msgs = append(msgs, msg{topic, append([]byte(nil), payload...)})
	})
	wantDigest, wantTotal, err := expectedTapDigest(p, seed, window, swarmPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if wantTotal != int64(len(msgs)) || wantTotal < 100 {
		t.Fatalf("expected %d messages, walked %d", wantTotal, len(msgs))
	}
	run := func(feed []msg) *result {
		tap := newTapDigest()
		for _, m := range feed {
			tap.observe(m.topic, m.payload)
		}
		digest, n := tap.sum()
		rp := &swarm.Report{Published: wantTotal, Expected: wantTotal * 2, Delivered: wantTotal * 2}
		r := &result{traced: true}
		swarmOracle(r, []swarmCall{{rep: rp, digest: digest, tapped: n}}, wantDigest, wantTotal)
		return r
	}

	// Reversed delivery order interleaves topics differently but keeps
	// each topic's own order once re-sorted stably per topic.
	byTopic := map[string][]msg{}
	for _, m := range msgs {
		byTopic[m.topic] = append(byTopic[m.topic], m)
	}
	var interleaved []msg
	keys := sortedKeys(byTopic)
	for i := len(keys) - 1; i >= 0; i-- {
		interleaved = append(interleaved, byTopic[keys[i]]...)
	}
	if r := run(interleaved); len(r.errs) != 0 || r.failed != 0 {
		t.Fatalf("the schedule's own traffic failed the oracle: %v", r.errs)
	}

	corrupt := append([]msg(nil), msgs...)
	corrupt[len(corrupt)/2].payload = append([]byte("x"), corrupt[len(corrupt)/2].payload[1:]...)
	swapped := append([]msg(nil), byTopic[keys[0]]...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	for _, k := range keys[1:] {
		swapped = append(swapped, byTopic[k]...)
	}
	for name, feed := range map[string][]msg{
		"corrupted payload": corrupt,
		"missing message":   msgs[1:],
		"duplicate message": append(append([]msg(nil), msgs...), msgs[0]),
		"reordered topic":   swapped,
	} {
		r := run(feed)
		if len(r.errs) == 0 || r.failed == 0 {
			t.Errorf("%s: oracle passed", name)
			continue
		}
		line, err := resultLine(r)
		if err != nil {
			t.Fatal(err)
		}
		var out struct{ Correct bool }
		if err := json.Unmarshal([]byte(line), &out); err != nil || out.Correct {
			t.Errorf("%s: result line %s does not fail the run", name, line)
		}
	}
}

func TestResultLine(t *testing.T) {
	r := &result{attempted: 10, traced: true}
	r.layer("broker.encode_ns", "ns", 123.5, 10)
	line, err := resultLine(r)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct           bool
		Attempted, Failed int64
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Attempted != 10 || len(out.Metrics) != len(perLayer) {
		t.Fatalf("traced line %s", line)
	}
	if m := out.Metrics["broker.encode_ns"]; m.Value != 123.5 || m.Unit != "ns" {
		t.Fatalf("encode_ns = %+v", m)
	}
	r = &result{attempted: 1}
	r.e2e("setup_s", "s", 1, 1)
	if _, err := resultLine(r); err == nil {
		t.Fatal("an untraced line with end-to-end metrics missing was accepted")
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json, which names
// the benchmark's command, workloads and metrics, in step with what
// this program prints.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s %s vs %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
