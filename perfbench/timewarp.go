package main

// timewarp-swarm: a fixed amount of profiled device traffic through
// the sharded in-process plane on a SpeedMax testbed — profile sampler
// → load generator → ring → bridge → route → in-process delivery. It
// bypasses the wire codec, REST and digi entirely.

import (
	"context"
	_ "embed"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	digibox "repro"
	"repro/internal/broker"
	"repro/internal/clock"
	"repro/internal/profile"
	"repro/internal/swarm"
)

//go:embed cityscape-x5.yaml
var cityProfileYAML []byte

const (
	swarmScenario = 600 * time.Second // scenario time per RunSwarm call
	swarmShards   = 4
	swarmSubs     = 2
	swarmPrefix   = "city"
	// swarmWindow is the scenario span whose wall time p50_ms reports;
	// it equals the traffic cams' burst period, so every window holds
	// one burst.
	swarmWindow = 20 * time.Second
	// swarmCallSeconds is the share of --seconds budgeted per RunSwarm
	// call, about its wall time on one P of a 2-vCPU host.
	swarmCallSeconds = 4
	// swarmTapEvery is how often, in deliveries, the tap reads the
	// scenario clock to find window boundaries.
	swarmTapEvery = 64
)

// newSwarmBed is the workload's set-up: a started SpeedMax testbed
// with no listeners, and the parsed profile.
func newSwarmBed() (*digibox.Testbed, *profile.Profile, time.Duration, error) {
	t0 := time.Now()
	p, err := profile.Parse(cityProfileYAML)
	if err != nil {
		return nil, nil, 0, err
	}
	var nodes []digibox.NodeSpec
	for i := 0; i < swarmShards; i++ {
		nodes = append(nodes, digibox.NodeSpec{Name: fmt.Sprintf("node-%d", i), Capacity: 64, Zone: "local"})
	}
	tb, err := digibox.New(digibox.Options{
		Nodes:      nodes,
		BrokerAddr: "none",
		RESTAddr:   "none",
		TimeScale:  clock.SpeedMax,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	if err := tb.Start(); err != nil {
		return nil, nil, 0, err
	}
	return tb, p, time.Since(t0), nil
}

// windowTap digests delivered traffic and stamps the wall time and
// tapped count at which the scenario clock, as deliveries see it,
// enters each window.
type windowTap struct {
	digest *tapDigest
	clk    clock.Clock
	n      atomic.Int64

	mu        sync.Mutex
	firstWall time.Time // when the first delivery arrived
	first     time.Time // scenario time of the first sampled delivery
	stamps    []time.Time
	counts    []int64
}

func (t *windowTap) observe(topic string, payload []byte) {
	t.digest.observe(topic, payload)
	n := t.n.Add(1)
	if n%swarmTapEvery != 1 {
		return
	}
	now := t.clk.Now()
	wall := time.Now()
	t.mu.Lock()
	if t.first.IsZero() {
		t.firstWall, t.first = wall, now
	}
	for w := int(now.Sub(t.first) / swarmWindow); len(t.stamps) <= w; {
		t.stamps = append(t.stamps, wall)
		t.counts = append(t.counts, n)
	}
	t.mu.Unlock()
}

// swarmCall is one RunSwarm call on a fresh testbed.
type swarmCall struct {
	rep    *swarm.Report
	start  time.Time
	wall   time.Duration
	cpu    time.Duration
	boot   time.Duration // New+Start and profile parse
	setup  time.Duration // boot, then RunSwarm call to first delivery
	stamps []time.Time   // wall time each scenario window was entered
	counts []int64       // tapped messages when it was entered
	digest string
	tapped int64
	log    int // trace-log records the call left
}

// windows returns the wall ms and the delivery rate of each complete
// scenario window.
func (c swarmCall) windows() (wallMs, rates []float64) {
	for i := 1; i < len(c.stamps); i++ {
		d := c.stamps[i].Sub(c.stamps[i-1])
		wallMs = append(wallMs, ms(d))
		if d > 0 {
			rates = append(rates, float64(swarmSubs*(c.counts[i]-c.counts[i-1]))/d.Seconds())
		}
	}
	return wallMs, rates
}

// runCall runs the profile once on a fresh testbed, as a user running
// one scenario would, so one call's trace log never adds to the next.
func runCall(seed int64) (swarmCall, error) {
	settle()
	tb, p, boot, err := newSwarmBed()
	if err != nil {
		return swarmCall{}, err
	}
	defer tb.Stop()
	tap := &windowTap{digest: newTapDigest(), clk: tb.Clock()}
	cpu0 := cpuTime()
	t0 := time.Now()
	rep, err := tb.RunSwarm(context.Background(), digibox.SwarmSpec{
		Shards: swarmShards,
		Load: swarm.LoadSpec{
			DeviceProfile: p,
			Duration:      swarmScenario,
			Workers:       runtime.NumCPU(),
			QoS:           1,
			Subs:          swarmSubs,
			Seed:          seed,
			Prefix:        swarmPrefix,
		},
		Tap: tap.observe,
	})
	if err != nil {
		return swarmCall{}, err
	}
	c := swarmCall{rep: rep, start: t0, wall: time.Since(t0), cpu: cpuTime() - cpu0, boot: boot, log: tb.Log.Len()}
	tap.mu.Lock()
	c.stamps, c.counts = tap.stamps, tap.counts
	c.setup = boot + tap.firstWall.Sub(t0)
	tap.mu.Unlock()
	c.digest, c.tapped = tap.digest.sum()
	return c, nil
}

// swarmPass is a series of RunSwarm calls: seconds/swarmCallSeconds of
// them, at least two — a count fixed by --seconds, not by how fast
// calls finish, so every commit does the same work.
type swarmPass struct {
	calls []swarmCall
	proc  procDelta
}

func runSwarmPass(seed int64, seconds float64) (swarmPass, error) {
	var p swarmPass
	p0 := takeProc()
	for n := max(2, int(seconds/swarmCallSeconds)); len(p.calls) < n; {
		c, err := runCall(seed)
		if err != nil {
			return p, err
		}
		p.calls = append(p.calls, c)
	}
	p.proc = p0.to(takeProc())
	return p, nil
}

func (p swarmPass) delivered() int64 {
	var n int64
	for _, c := range p.calls {
		n += c.rep.Delivered
	}
	return n
}

// e2e derives the end-to-end metrics of a pass, each with the number
// of scenario windows or calls it rests on.
func (p swarmPass) e2e() map[string]metric {
	var windows, rates, walls, cpu []float64
	for _, c := range p.calls {
		w, r := c.windows()
		windows = append(windows, w...)
		rates = append(rates, r...)
		walls = append(walls, ms(c.wall))
		cpu = append(cpu, float64(c.cpu.Microseconds())/float64(c.rep.Delivered))
	}
	return map[string]metric{
		"p50_ms":        {Value: median(windows), Samples: len(windows)},
		"write_p50_ms":  {Value: median(walls), Samples: len(walls)},
		"ops_per_s":     {Value: median(rates), Samples: len(rates)},
		"cpu_us_per_op": {Value: median(cpu), Samples: len(cpu)},
	}
}

func runTimewarpSwarm(cfg config, r *result) error {
	var startDur time.Duration
	p, err := profile.Parse(cityProfileYAML)
	if err != nil {
		return err
	}
	// The clock-free expectation: what every call must deliver.
	wantDigest, wantTotal, err := expectedTapDigest(p, cfg.seed, swarmScenario, swarmPrefix)
	if err != nil {
		return err
	}

	var passes []swarmPass
	var last swarmPass
	if !cfg.traced {
		if last, err = runSwarmPass(cfg.seed, cfg.seconds); err != nil {
			return err
		}
		passes = []swarmPass{last}
		var setupTimes []float64
		for _, c := range last.calls {
			setupTimes = append(setupTimes, c.setup.Seconds())
		}
		setupMetric(r, setupTimes)
		e2eMetrics(r, last.e2e())
		var windows []float64
		var wall time.Duration
		for _, c := range last.calls {
			w, _ := c.windows()
			windows = append(windows, w...)
			wall += c.wall
		}
		r.tailDiag("", windows)
		r.diag("rate.mean", "1/s", float64(last.delivered())/wall.Seconds(), int(last.delivered()))
	} else {
		u, err := runSwarmPass(cfg.seed, cfg.seconds/2)
		if err != nil {
			return err
		}
		if last, err = runSwarmPass(cfg.seed, cfg.seconds/2); err != nil {
			return err
		}
		passes = []swarmPass{u, last}
		overhead(r, u.e2e(), last.e2e())
		tr := newTracer(1)
		var compression []float64
		var records int
		for i, c := range last.calls {
			root := tr.add("core.RunSwarm", int64(i), 0, c.start, c.start.Add(c.wall))
			for w := 1; w < len(c.stamps); w++ {
				tr.add("swarm.window", int64(i), root, c.stamps[w-1], c.stamps[w])
			}
			compression = append(compression, swarmScenario.Seconds()/c.wall.Seconds())
			records += c.log
			startDur = c.boot
		}
		rep := last.calls[len(last.calls)-1].rep
		r.layer("swarm.bridge_forwards_per_msg", "ratio", float64(rep.BridgeForwards)/float64(rep.Published), int(rep.Published))
		var maxIn, sumIn int64
		for _, sh := range rep.PerShard {
			maxIn = max(maxIn, sh.PublishesIn)
			sumIn += sh.PublishesIn
		}
		r.layer("swarm.shard_skew", "ratio", float64(maxIn)/(float64(sumIn)/float64(len(rep.PerShard))), len(rep.PerShard))
		r.layer("swarm.published", "count", float64(rep.Published), 1)
		r.layer("swarm.delivered", "count", float64(rep.Delivered), 1)
		r.layer("swarm.lost", "count", float64(rep.Lost), 1)
		r.layer("swarm.dropped", "count", float64(rep.Dropped), 1)
		r.layer("clock.compression_x", "ratio", median(compression), len(compression))
		r.layer("core.start_ms", "ms", ms(startDur), 1)
		r.layer("trace.records_per_op", "count", float64(records)/float64(last.delivered()), int(last.delivered()))
		addProcMetrics(r, last.proc, last.delivered())
		if err := finishTrace(cfg, r, tr); err != nil {
			return err
		}
		if err := swarmProbes(r, p, cfg.seed); err != nil {
			return err
		}
	}

	var calls []swarmCall
	for _, q := range passes {
		calls = append(calls, q.calls...)
	}
	swarmOracle(r, calls, wantDigest, wantTotal)
	r.diag("calls", "count", float64(len(calls)), len(calls))
	return nil
}

// swarmOracle checks that every call delivered exactly the profile's
// schedule — the tap's digest and count equal the clock-free
// expectation — with no QoS-1 loss and every subscriber served. A
// mismatch fails the run; nothing is retried.
func swarmOracle(r *result, calls []swarmCall, wantDigest string, wantTotal int64) {
	for _, rep := range calls {
		rp := rep.rep
		r.attempted += rp.Expected
		r.failed += max(rp.Lost, 0) + rp.Dropped
		if rep.digest != wantDigest || rep.tapped != wantTotal {
			r.failed += max(wantTotal-rep.tapped, rep.tapped-wantTotal, 1)
		}
		r.check(rep.digest == wantDigest && rep.tapped == wantTotal,
			"tap digest %.16s over %d messages, want %.16s over %d", rep.digest, rep.tapped, wantDigest, wantTotal)
		r.check(rp.Published == wantTotal, "published %d, profile schedules %d", rp.Published, wantTotal)
		r.check(rp.Lost == 0 && rp.Delivered == rp.Expected, "delivered %d of %d (lost %d)", rp.Delivered, rp.Expected, rp.Lost)
		r.check(rp.Dropped == 0, "dropped %d", rp.Dropped)
	}
	r.diag("error_rate", "ratio", float64(r.failed)/float64(max(r.attempted, 1)), int(r.attempted))
}

// swarmProbes times the profile sampler and a standalone pool shaped
// like the run's (same shards and subscribers) from outside, plus the
// wire codec on the profile's messages.
func swarmProbes(r *result, p *profile.Profile, seed int64) error {
	var compile []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := profile.Compile(p, 0, seed); err != nil {
			return err
		}
		compile = append(compile, ms(time.Since(t)))
	}
	r.layer("profile.compile_ms", "ms", median(compile), len(compile))

	nf, n, err := timeNextFire(p, seed)
	if err != nil {
		return err
	}
	r.layer("profile.nextfire_ns", "ns", nf, int(n))

	// Every 16th scheduled message, up to 20,000, feeds the pool probe.
	type msg struct {
		topic   string
		payload []byte
	}
	var msgs []msg
	s, err := profile.Compile(p, 0, seed)
	if err != nil {
		return err
	}
	i := 0
	err = profile.Walk(p, 0, seed, swarmScenario, func(d int, _ time.Duration, payload []byte) {
		if i++; i%16 == 0 && len(msgs) < 20000 {
			msgs = append(msgs, msg{s.DeviceTopic(swarmPrefix, d), payload})
		}
	})
	if err != nil {
		return err
	}

	pool := swarm.NewPool(swarm.PoolOptions{Shards: swarmShards})
	defer pool.Close()
	var got atomic.Int64
	for k := 0; k < swarmSubs; k++ {
		if err := pool.Subscribe(fmt.Sprintf("probe-sub-%d", k), swarmPrefix+"/+/status", 1, func(broker.Message) { got.Add(1) }); err != nil {
			return err
		}
	}
	lat := make([]float64, 0, len(msgs))
	for _, m := range msgs {
		t := time.Now()
		if err := pool.Publish("perfbench", m.topic, m.payload, 1, false); err != nil {
			return err
		}
		lat = append(lat, usSince(t))
	}
	r.layer("swarm.pool_publish_us", "us", median(lat), len(lat))
	r.check(got.Load() == int64(swarmSubs*len(msgs)), "pool probe delivered %d of %d", got.Load(), swarmSubs*len(msgs))

	topics := make([]string, 0, len(msgs))
	for _, m := range msgs {
		topics = append(topics, m.topic)
	}
	return wireProbes(r, topics, msgs[0].payload)
}

// timeNextFire walks the run's whole schedule on a fresh sampler and
// returns the ns per NextFire call and the number of calls.
func timeNextFire(p *profile.Profile, seed int64) (float64, int64, error) {
	s, err := profile.Compile(p, 0, seed)
	if err != nil {
		return 0, 0, err
	}
	var n int64
	t := time.Now()
	for d := 0; d < s.Devices(); d++ {
		for {
			n++
			if at, _ := s.NextFire(d); at >= swarmScenario {
				break
			}
		}
	}
	return float64(time.Since(t).Nanoseconds()) / float64(n), n, nil
}
