package main

// scene-rest: the paper's §4 cloud-point hierarchy on one node, with
// an application that reads sensor status over REST and actuates
// standalone lamps, watching for their MQTT status. Reads and writes
// share the model and rest layers; a write also crosses digi and the
// broker, so a gain for one use that costs the other shows. The
// application runs one closed loop per CPU of the 2-vCPU host it was
// sized on, so one loop's stalled cross-CPU hand-off overlaps the
// other's work.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	digibox "repro"
	"repro/internal/broker"
	"repro/internal/rest"
)

const (
	sceneSensors    = 1000
	sceneRooms      = 100
	sceneBuildings  = 5
	sceneLamps      = 50
	sceneIntervalMs = 2000 // generator interval of sensors and scenes
	sceneSetups     = 3    // set-ups per untraced run; setup_s is their median
	sceneWriteEvery = 10   // one op in ten is an actuation
	sceneApps       = 2    // concurrent app loops, each on its own connection
	sceneActTimeout = 2 * time.Second
	sceneTraceEvery = 7 // odd, so both apps' ops are sampled
	// sceneOpsPerSecond sizes a pass: this many app ops per second of
	// --seconds, near the throughput measured on a 2-vCPU host. The count,
	// not the wall time, is fixed, so every commit does the same work
	// and grows the same trace log.
	sceneOpsPerSecond = 9000
	sceneWindow       = time.Second
)

func sensorName(i int) string { return fmt.Sprintf("occ%04d", i) }
func lampName(i int) string   { return fmt.Sprintf("lamp%02d", i) }

type sceneBed struct {
	tb       *digibox.Testbed
	app      *broker.Client
	clients  []*rest.Client // one keep-alive connection per app
	handler  http.Handler
	power    []string // last converged power status per lamp
	startDur time.Duration
	runMs    []float64
	attachMs []float64

	mu      sync.Mutex
	waiters map[string]*lampWaiter // by status topic
}

// lampWaiter is the actuation in flight: it completes when the app
// sees the lamp's MQTT status report the wanted power.
type lampWaiter struct {
	topic, want string
	done        chan time.Time
}

// onStatus is the app's MQTT handler for digibox/+/status.
func (b *sceneBed) onStatus(m broker.Message) {
	b.mu.Lock()
	w := b.waiters[m.Topic]
	b.mu.Unlock()
	if w == nil {
		return
	}
	at := time.Now()
	var st struct {
		Power struct {
			Status string `json:"status"`
		} `json:"power"`
	}
	if json.Unmarshal(m.Payload, &st) != nil || st.Power.Status != w.want {
		return
	}
	select {
	case w.done <- at:
	default:
	}
}

// newSceneBed is the workload's set-up, timed from New to the last
// attach: 1,000 occupancy sensors in 100 rooms in 5 buildings, plus
// standalone lamps (a lamp in a room would follow the room's policy,
// not the app). The app's MQTT session and HTTP client connect after.
func newSceneBed(seed int64) (*sceneBed, time.Duration, error) {
	t0 := time.Now()
	tb, err := digibox.New(digibox.Options{})
	if err != nil {
		return nil, 0, err
	}
	if err := tb.Start(); err != nil {
		return nil, 0, err
	}
	b := &sceneBed{tb: tb, startDur: time.Since(t0), power: make([]string, sceneLamps), waiters: map[string]*lampWaiter{}}
	run := func(typ, name string, i int) error {
		t := time.Now()
		err := tb.Run(typ, name, map[string]any{"interval_ms": int64(sceneIntervalMs), "seed": seed*100003 + int64(i)})
		b.runMs = append(b.runMs, ms(time.Since(t)))
		return err
	}
	attach := func(child, parent string) error {
		t := time.Now()
		err := tb.Attach(child, parent)
		b.attachMs = append(b.attachMs, ms(time.Since(t)))
		return err
	}
	fail := func(err error) (*sceneBed, time.Duration, error) {
		tb.Stop()
		return nil, 0, err
	}
	for i := 0; i < sceneSensors; i++ {
		if err := run("Occupancy", sensorName(i), i); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < sceneRooms; i++ {
		if err := run("Room", fmt.Sprintf("room%03d", i), sceneSensors+i); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < sceneBuildings; i++ {
		if err := run("Building", fmt.Sprintf("bldg%d", i), sceneSensors+sceneRooms+i); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < sceneLamps; i++ {
		if err := run("Lamp", lampName(i), -1-i); err != nil {
			return fail(err)
		}
		b.power[i] = "off"
	}
	for i := 0; i < sceneSensors; i++ {
		if err := attach(sensorName(i), fmt.Sprintf("room%03d", i%sceneRooms)); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < sceneRooms; i++ {
		if err := attach(fmt.Sprintf("room%03d", i), fmt.Sprintf("bldg%d", i%sceneBuildings)); err != nil {
			return fail(err)
		}
	}
	setup := time.Since(t0)

	b.handler = tb.Gateway.Handler()
	for range sceneApps {
		b.clients = append(b.clients, &rest.Client{Base: "http://" + tb.RESTAddr(), HTTP: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		}})
	}
	if b.app, err = broker.Dial(tb.BrokerAddr(), &broker.ClientOptions{ClientID: "perfbench-app"}); err != nil {
		return fail(err)
	}
	if err := b.app.Subscribe("digibox/+/status", 1, b.onStatus); err != nil {
		b.close()
		return nil, 0, err
	}
	return b, setup, nil
}

func (b *sceneBed) close() {
	if b.app != nil {
		b.app.Close()
	}
	for _, c := range b.clients {
		if t, ok := c.HTTP.Transport.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
	}
	b.tb.Stop()
}

// scenePass is what one closed-loop pass measured.
type scenePass struct {
	reads, writes []float64 // ms
	ops           int64
	httpErrs      int64
	badBodies     int64
	timeouts      int64
	ticks         []tick // counting ops
	wall          time.Duration
	proc          procDelta
	commits       uint64
	records       int
	// Traced passes only, µs per sampled op.
	handler, transport, get, reconcile, statusGap []float64
}

// pass runs the apps' closed loops: nine status GETs of random sensors
// to one lamp actuation, one request at a time per app, and
// sceneOpsPerSecond ops in all for each of seconds.
func (b *sceneBed) pass(seed int64, seconds float64, tr *tracer) scenePass {
	var p scenePass
	settle()
	gen0, log0 := b.tb.Store.Gen(), b.tb.Log.Len()
	var done atomic.Int64
	stop := make(chan struct{})
	ticks := make(chan []tick)
	go func() { ticks <- sampleTicks(done.Load, sceneWindow, stop) }()
	perApp := int64(sceneOpsPerSecond*seconds) / sceneApps
	apps := make([]scenePass, sceneApps)
	var wg sync.WaitGroup
	p0 := takeProc()
	for a := range apps {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			q := &apps[a]
			rng := rand.New(rand.NewSource(seed*sceneApps + int64(a)))
			for i := int64(0); i < perApp; i++ {
				op := i*sceneApps + int64(a)
				if rng.Intn(sceneWriteEvery) == 0 {
					// App a owns the lamps congruent to a, so no lamp
					// has two actuations in flight.
					b.actuate(q, a, a+sceneApps*rng.Intn(sceneLamps/sceneApps), op, tr)
				} else {
					b.read(q, a, sensorName(rng.Intn(sceneSensors)), op, tr)
				}
				q.ops++
				done.Add(1)
			}
		}(a)
	}
	wg.Wait()
	p.proc = p0.to(takeProc())
	close(stop)
	p.ticks = <-ticks
	p.wall = p.proc.wall
	p.commits = b.tb.Store.Gen() - gen0
	p.records = b.tb.Log.Len() - log0
	for _, q := range apps {
		p.reads = append(p.reads, q.reads...)
		p.writes = append(p.writes, q.writes...)
		p.ops += q.ops
		p.httpErrs += q.httpErrs
		p.badBodies += q.badBodies
		p.timeouts += q.timeouts
		p.handler = append(p.handler, q.handler...)
		p.transport = append(p.transport, q.transport...)
		p.get = append(p.get, q.get...)
		p.reconcile = append(p.reconcile, q.reconcile...)
		p.statusGap = append(p.statusGap, q.statusGap...)
	}
	return p
}

func (b *sceneBed) read(p *scenePass, app int, name string, op int64, tr *tracer) {
	t0 := time.Now()
	st, err := b.clients[app].Status(name)
	t1 := time.Now()
	if err != nil {
		p.httpErrs++
		return
	}
	p.reads = append(p.reads, ms(t1.Sub(t0)))
	// The sensor's status carries its reading and never the meta
	// section the gateway strips.
	if _, ok := st["triggered"].(bool); !ok || st["meta"] != nil {
		p.badBodies++
	}
	if !tr.sampled(op) {
		return
	}
	root := tr.add("app.read", op, 0, t0, t1)
	tr.add("rest.Client.Status", op, root, t0, t1)
	// The same request served in-process, and the store read under
	// it, timed outside the op.
	req := httptest.NewRequest(http.MethodGet, "/v1/models/"+name+"/status", nil)
	rec := httptest.NewRecorder()
	h0 := time.Now()
	b.handler.ServeHTTP(rec, req)
	h := usSince(h0)
	g0 := time.Now()
	b.tb.Store.Get(name)
	p.get = append(p.get, usSince(g0))
	if rec.Code == http.StatusOK {
		p.handler = append(p.handler, h)
		p.transport = append(p.transport, float64(t1.Sub(t0).Nanoseconds())/1e3-h)
	}
}

func (b *sceneBed) actuate(p *scenePass, app, lamp int, op int64, tr *tracer) {
	name := lampName(lamp)
	want := "on"
	if b.power[lamp] == "on" {
		want = "off"
	}
	w := &lampWaiter{topic: "digibox/" + name + "/status", want: want, done: make(chan time.Time, 1)}
	b.mu.Lock()
	b.waiters[w.topic] = w
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		delete(b.waiters, w.topic)
		b.mu.Unlock()
	}()

	traced := tr.sampled(op)
	var reconciled chan time.Time
	if traced {
		// The store commit that makes the lamp's status match the
		// intent, as a watcher of the testbed sees it.
		watch := b.tb.Watch(name)
		reconciled = make(chan time.Time, 1)
		go func() {
			for u := range watch.C {
				if u.Doc.GetString("power.status") == want {
					reconciled <- time.Now()
					watch.Close()
					return
				}
			}
		}()
		defer watch.Close()
	}
	t0 := time.Now()
	err := b.clients[app].Patch(name, map[string]any{"power": map[string]any{"intent": want}})
	t1 := time.Now()
	if err != nil {
		p.httpErrs++
		return
	}
	b.power[lamp] = want
	var t3 time.Time
	select {
	case t3 = <-w.done:
	case <-time.After(sceneActTimeout):
		p.timeouts++
		return
	}
	p.writes = append(p.writes, ms(t3.Sub(t0)))
	if !traced {
		return
	}
	var t2 time.Time
	select {
	case t2 = <-reconciled:
	case <-time.After(sceneActTimeout):
		p.timeouts++
		return
	}
	// The lamp often converges before the PATCH response is back, so
	// the later stages are kept signed in the metrics and made spans
	// only when they have a duration.
	root := tr.add("app.actuate", op, 0, t0, t3)
	tr.add("rest.Client.Patch", op, root, t0, t1)
	if t2.After(t1) {
		tr.add("digi.reconcile", op, root, t1, t2)
	}
	if t3.After(t2) {
		tr.add("broker.status_gap", op, root, t2, t3)
	}
	p.reconcile = append(p.reconcile, float64(t2.Sub(t1).Nanoseconds())/1e3)
	p.statusGap = append(p.statusGap, float64(t3.Sub(t2).Nanoseconds())/1e3)
}

// e2e derives the end-to-end metrics of a pass, each with the number
// of samples or windows it rests on.
func (p scenePass) e2e() map[string]metric {
	rate, cpu := rates(p.ticks), cpuPerOp(p.ticks)
	return map[string]metric{
		"p50_ms":        {Value: median(p.reads), Samples: len(p.reads)},
		"write_p50_ms":  {Value: median(p.writes), Samples: len(p.writes)},
		"ops_per_s":     {Value: median(rate), Samples: len(rate)},
		"cpu_us_per_op": {Value: median(cpu), Samples: len(cpu)},
	}
}

func runSceneREST(cfg config, r *result) error {
	b, setupTimes, err := setUp(cfg, sceneSetups, func() (*sceneBed, time.Duration, error) { return newSceneBed(cfg.seed) })
	if err != nil {
		return err
	}
	defer b.close()
	stats0 := b.tb.Broker.Stats()

	var p scenePass
	var passes []scenePass
	if !cfg.traced {
		p = b.pass(cfg.seed, cfg.seconds, nil)
		passes = []scenePass{p}
		setupMetric(r, setupTimes)
		e2eMetrics(r, p.e2e())
		r.tailDiag("", p.reads)
		r.tailDiag("write.", p.writes)
		r.diag("rate.mean", "1/s", float64(p.ops)/p.wall.Seconds(), int(p.ops))
		st := b.tb.Broker.Stats()
		r.diag("broker.dropped", "count", float64(st.Dropped-stats0.Dropped), int(st.MessagesOut-stats0.MessagesOut))
	} else {
		tr := newTracer(sceneTraceEvery)
		u := b.pass(cfg.seed, cfg.seconds/2, nil)
		p = b.pass(cfg.seed+1, cfg.seconds/2, tr)
		passes = []scenePass{u, p}
		overhead(r, u.e2e(), p.e2e())
		call := tr.durations("rest.Client.Status")
		patch := tr.durations("rest.Client.Patch")
		r.layer("rest.status_call_us", "us", median(call), len(call))
		r.layer("rest.handler_us", "us", median(p.handler), len(p.handler))
		r.layer("rest.transport_us", "us", median(p.transport), len(p.transport))
		r.layer("rest.patch_call_us", "us", median(patch), len(patch))
		r.layer("model.get_us", "us", median(p.get), len(p.get))
		r.layer("model.commits_per_s", "1/s", float64(p.commits)/p.wall.Seconds(), int(p.commits))
		r.layer("digi.reconcile_us", "us", median(p.reconcile), len(p.reconcile))
		r.layer("broker.status_gap_us", "us", median(p.statusGap), len(p.statusGap))
		r.layer("core.start_ms", "ms", ms(b.startDur), 1)
		r.layer("core.run_ms", "ms", median(b.runMs), len(b.runMs))
		r.layer("core.attach_ms", "ms", median(b.attachMs), len(b.attachMs))
		r.layer("trace.records_per_op", "count", float64(p.records)/float64(p.ops), int(p.ops))
		addProcMetrics(r, p.proc, p.ops)
		st := b.tb.Broker.Stats()
		in, out := st.PublishesIn-stats0.PublishesIn, st.MessagesOut-stats0.MessagesOut
		r.layer("broker.publishes_in", "count", float64(in), 1)
		r.layer("broker.messages_out", "count", float64(out), 1)
		r.layer("broker.dropped", "count", float64(st.Dropped-stats0.Dropped), 1)
		r.layer("broker.delivery_ratio", "ratio", float64(out)/float64(in), int(in))
		stageSum(r, "rest.patch_call_us + digi.reconcile_us + broker.status_gap_us",
			(median(patch)+median(p.reconcile)+median(p.statusGap))/1e3, median(u.writes))
		if err := finishTrace(cfg, r, tr); err != nil {
			return err
		}
	}

	// Oracles: every request answered, every status body a sensor's,
	// every actuation converged within the timeout.
	var ops, bad int64
	for _, q := range passes {
		ops += q.ops
		bad += q.httpErrs + q.badBodies + q.timeouts
		r.check(q.httpErrs == 0, "%d HTTP requests failed", q.httpErrs)
		r.check(q.badBodies == 0, "%d status bodies without the sensor's fields", q.badBodies)
		r.check(q.timeouts == 0, "%d actuations did not converge within %s", q.timeouts, sceneActTimeout)
	}
	r.attempted, r.failed = ops, bad
	r.diag("error_rate", "ratio", float64(bad)/float64(ops), int(ops))

	if cfg.traced {
		lampMsg := []byte(`{"intensity":{"intent":0,"status":0},"power":{"intent":"on","status":"on"}}`)
		topics := make([]string, sceneLamps)
		for i := range topics {
			topics[i] = "digibox/" + lampName(i) + "/status"
		}
		if err := wireProbes(r, topics, lampMsg); err != nil {
			return err
		}
		if err := inprocProbe(r, b.tb.Broker, lampMsg); err != nil {
			return err
		}
	}
	return nil
}
