package main

// mqtt-wire: two wire clients on a started testbed. Almost all the
// work is the broker's wire path — ReadPacket, route, outbound queue
// and flush, PUBACKs — so broker read-buffering and allocation work
// shows here first. REST, model and digi are idle.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	digibox "repro"
	"repro/internal/broker"
)

const (
	wireTopics   = 500
	wirePayload  = 32
	wireOpenRate = 3000 // phase-1 offered load, msgs/s
	wireFilter   = "tele/+/status"
	wireSetups   = 10 // set-ups per untraced run; setup_s is their median
	// wireOpenShare is the share of a pass spent in the open loop.
	wireOpenShare  = 0.4
	wireTraceEvery = 16
	wireWindow     = 500 * time.Millisecond
	// wireClosedRate sizes phase 2: it sends this many messages per
	// second of its share of --seconds, below the throughput measured
	// on a 2-vCPU host. The count, not the wall time, is fixed, so every
	// commit does the same work and grows the same trace log.
	wireClosedRate = 15000
)

// wire payload layout (32 bytes, big endian): stamp ns since epoch
// [0:8], topic index [8:12], per-topic seq [12:16], op id [16:24],
// traced flag [24], seed-derived filler [25:32].

type wireBed struct {
	tb       *digibox.Testbed
	pub, sub *broker.Client
	topics   []string
	fill     [7]byte
	next     []int // per-topic next seq; a topic has one sender at a time
	ops      atomic.Uint64
	recv     *wireRecv
	sent     int64 // publishes acknowledged
	pubErrs  int64
	startDur time.Duration // New+Start
}

// wireRecv is the subscriber's handler state. Handlers run on the
// client's single dispatch goroutine; mu orders them with readers.
type wireRecv struct {
	topics []string

	mu       sync.Mutex
	check    *seqChecker
	lat      []float64 // ms from payload stamp to receipt, current phase
	recvAt   map[uint64]int64
	misroute int64
	n        atomic.Int64
}

func (w *wireRecv) handle(m broker.Message) {
	at := now()
	p := m.Payload
	w.mu.Lock()
	defer w.mu.Unlock()
	defer w.n.Add(1)
	if len(p) != wirePayload {
		w.misroute++
		return
	}
	topic := int(binary.BigEndian.Uint32(p[8:12]))
	if topic >= len(w.topics) || w.topics[topic] != m.Topic {
		w.misroute++
		return
	}
	w.check.observe(topic, int(binary.BigEndian.Uint32(p[12:16])))
	w.lat = append(w.lat, float64(at-int64(binary.BigEndian.Uint64(p[0:8])))/1e6)
	if p[24] == 1 {
		w.recvAt[binary.BigEndian.Uint64(p[16:24])] = at
	}
}

// takeLat returns the phase's latency samples and starts a new phase.
func (w *wireRecv) takeLat() []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.lat
	w.lat = nil
	return out
}

func (b *wireBed) payload(topic, seq int, op uint64, stamp int64, traced bool) []byte {
	p := make([]byte, wirePayload)
	binary.BigEndian.PutUint64(p[0:8], uint64(stamp))
	binary.BigEndian.PutUint32(p[8:12], uint32(topic))
	binary.BigEndian.PutUint32(p[12:16], uint32(seq))
	binary.BigEndian.PutUint64(p[16:24], op)
	if traced {
		p[24] = 1
	}
	copy(p[25:], b.fill[:])
	return p
}

// publish sends the next message on topic, stamped with stamp.
func (b *wireBed) publish(topic int, stamp int64, traced bool) (op uint64, err error) {
	seq := b.next[topic]
	b.next[topic]++
	op = b.ops.Add(1)
	err = b.pub.Publish(b.topics[topic], b.payload(topic, seq, op, stamp, traced), 1, false)
	return op, err
}

// newWireBed is the workload's set-up: a started testbed, the two
// clients, the subscription, and one acknowledged and delivered
// message per topic so every topic's route is warm.
func newWireBed(seed int64) (*wireBed, time.Duration, error) {
	t0 := time.Now()
	tb, err := digibox.New(digibox.Options{})
	if err != nil {
		return nil, 0, err
	}
	if err := tb.Start(); err != nil {
		return nil, 0, err
	}
	b := &wireBed{tb: tb, next: make([]int, wireTopics), startDur: time.Since(t0)}
	rand.New(rand.NewSource(seed)).Read(b.fill[:])
	for i := 0; i < wireTopics; i++ {
		b.topics = append(b.topics, fmt.Sprintf("tele/dev-%03d/status", i))
	}
	b.recv = &wireRecv{topics: b.topics, check: newSeqChecker(wireTopics), recvAt: map[uint64]int64{}}
	if b.pub, err = broker.Dial(tb.BrokerAddr(), &broker.ClientOptions{ClientID: "perfbench-pub"}); err != nil {
		b.close()
		return nil, 0, err
	}
	if b.sub, err = broker.Dial(tb.BrokerAddr(), &broker.ClientOptions{ClientID: "perfbench-sub"}); err != nil {
		b.close()
		return nil, 0, err
	}
	if err := b.sub.Subscribe(wireFilter, 1, b.recv.handle); err != nil {
		b.close()
		return nil, 0, err
	}
	for i := range b.topics {
		if _, err := b.publish(i, now(), false); err != nil {
			b.close()
			return nil, 0, err
		}
		b.sent++
	}
	if !b.drain(5 * time.Second) {
		b.close()
		return nil, 0, fmt.Errorf("warm-up: %d of %d delivered", b.recv.n.Load(), b.sent)
	}
	b.recv.takeLat()
	return b, time.Since(t0), nil
}

func (b *wireBed) close() {
	if b.pub != nil {
		b.pub.Close()
	}
	if b.sub != nil {
		b.sub.Close()
	}
	b.tb.Stop()
}

// drain waits until every acknowledged publish has been delivered.
func (b *wireBed) drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for b.recv.n.Load() < b.sent {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// wirePass is what one pass of the two phases measured.
type wirePass struct {
	openTicks   []tick    // phase 1, counting publishes
	openLat     []float64 // ms: due time → receipt
	late        []float64 // ms: due time → send
	openMsgs    int64
	ticks       []tick // phase 2, counting deliveries
	closedWall  time.Duration
	lat, write  []float64 // ms: publish start → receipt; Publish call
	delivered   int64
	proc        procDelta
	drainFailed bool
	spans       []wireSpan
}

// wireSpan is one traced phase-2 message: publish start and return
// on the sender, receipt on the subscriber.
type wireSpan struct {
	op              uint64
	start, ret, rcv int64
}

// pass runs phase 1, an open loop at wireOpenRate for wireOpenShare
// of seconds, then phase 2, a closed loop of one sender per CPU sending
// wireClosedRate messages per second of the rest.
func (b *wireBed) pass(seed int64, seconds float64, tr *tracer) wirePass {
	var out wirePass
	settle()
	p0 := takeProc()

	// Phase 1: open loop. Message i is due at start + i/rate; it is
	// timed from its due time, so a stall shows in every message
	// queued behind it, and the generator's own lateness is reported.
	rng := rand.New(rand.NewSource(seed))
	openFor := int64(wireOpenShare * seconds * float64(time.Second))
	interval := int64(time.Second) / wireOpenRate
	var opened atomic.Int64
	done := make(chan struct{})
	ticks := make(chan []tick)
	go func() { ticks <- sampleTicks(opened.Load, wireWindow, done) }()
	start := now()
	for due := start; due < start+openFor; due += interval {
		if wait := due - now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		out.late = append(out.late, float64(now()-due)/1e6)
		if _, err := b.publish(rng.Intn(wireTopics), due, false); err != nil {
			b.pubErrs++
			continue
		}
		b.sent++
		opened.Add(1)
	}
	out.drainFailed = !b.drain(5 * time.Second)
	close(done)
	out.openTicks = <-ticks
	out.openMsgs = opened.Load()
	out.openLat = b.recv.takeLat()

	// Phase 2: closed loop. Each sender owns the topics congruent to
	// its index, so per-topic publish order is each sender's program
	// order and the subscriber can check it.
	senders := runtime.NumCPU()
	perSender := int(wireClosedRate*(1-wireOpenShare)*seconds) / senders
	recv0 := b.recv.n.Load()
	t0 := time.Now()
	var wg sync.WaitGroup
	writes := make([][]float64, senders)
	spans := make([][]wireSpan, senders)
	sent := make([]int64, senders)
	errs := make([]int64, senders)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(g)))
			var own []int
			for t := g; t < wireTopics; t += senders {
				own = append(own, t)
			}
			for n := int64(0); n < int64(perSender); n++ {
				traced := tr.sampled(n)
				st := now()
				op, err := b.publish(own[rng.Intn(len(own))], st, traced)
				ret := now()
				if err != nil {
					errs[g]++
					continue
				}
				sent[g]++
				writes[g] = append(writes[g], float64(ret-st)/1e6)
				if traced {
					spans[g] = append(spans[g], wireSpan{op: op, start: st, ret: ret})
				}
			}
		}(g)
	}
	done = make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	out.ticks = sampleTicks(b.recv.n.Load, wireWindow, done)
	for g := 0; g < senders; g++ {
		b.sent += sent[g]
		b.pubErrs += errs[g]
		out.write = append(out.write, writes[g]...)
		out.spans = append(out.spans, spans[g]...)
	}
	out.drainFailed = !b.drain(5*time.Second) || out.drainFailed
	out.closedWall = time.Since(t0)
	out.delivered = b.recv.n.Load() - recv0
	out.lat = b.recv.takeLat()
	out.proc = p0.to(takeProc())
	b.recv.mu.Lock()
	for i := range out.spans {
		out.spans[i].rcv = b.recv.recvAt[out.spans[i].op]
	}
	b.recv.mu.Unlock()
	return out
}

// e2e derives the end-to-end metrics of a pass, each with the number
// of samples or windows it rests on.
func (p wirePass) e2e() map[string]metric {
	rate, cpu := rates(p.ticks), cpuPerOp(p.openTicks)
	return map[string]metric{
		"p50_ms":        {Value: median(p.lat), Samples: len(p.lat)},
		"write_p50_ms":  {Value: median(p.write), Samples: len(p.write)},
		"ops_per_s":     {Value: median(rate), Samples: len(rate)},
		"cpu_us_per_op": {Value: median(cpu), Samples: len(cpu)},
	}
}

func runMQTTWire(cfg config, r *result) error {
	b, setupTimes, err := setUp(cfg, wireSetups, func() (*wireBed, time.Duration, error) { return newWireBed(cfg.seed) })
	if err != nil {
		return err
	}
	defer b.close()
	stats0 := b.tb.Broker.Stats()
	log0 := b.tb.Log.Len()

	var p wirePass
	if !cfg.traced {
		p = b.pass(cfg.seed, cfg.seconds, nil)
		setupMetric(r, setupTimes)
		e2eMetrics(r, p.e2e())
		r.tailDiag("", p.lat)
		r.tailDiag("write.", p.write)
		r.diag("rate.mean", "1/s", float64(p.delivered)/p.closedWall.Seconds(), int(p.delivered))
	} else {
		tr := newTracer(wireTraceEvery)
		u := b.pass(cfg.seed, cfg.seconds/2, nil)
		p = b.pass(cfg.seed+1, cfg.seconds/2, tr)
		overhead(r, u.e2e(), p.e2e())
		var gaps []float64
		for _, s := range p.spans {
			if s.rcv == 0 {
				continue
			}
			at := func(ns int64) time.Time { return epoch.Add(time.Duration(ns)) }
			root := tr.add("mqtt.message", int64(s.op), 0, at(s.start), at(max(s.rcv, s.ret)))
			tr.add("broker.Client.Publish", int64(s.op), root, at(s.start), at(s.ret))
			if s.rcv > s.ret {
				tr.add("broker.deliver", int64(s.op), root, at(s.ret), at(s.rcv))
			}
			gaps = append(gaps, float64(s.rcv-s.ret)/1e3)
		}
		call := tr.durations("broker.Client.Publish")
		r.layer("broker.publish_call_us", "us", median(call), len(call))
		r.layer("broker.deliver_gap_us", "us", median(gaps), len(gaps))
		stageSum(r, "broker.publish_call_us + broker.deliver_gap_us", (median(call)+median(gaps))/1e3, median(u.lat))
		if err := finishTrace(cfg, r, tr); err != nil {
			return err
		}
	}
	r.diag("open.p50_ms", "ms", median(p.openLat), len(p.openLat))
	r.tailDiag("open.", p.openLat)
	r.diag("gen.late_ms_p50", "ms", median(p.late), len(p.late))
	r.diag("gen.late_ms_max", "ms", quantile(p.late, 1), len(p.late))

	// Oracles: every message delivered exactly once, in per-topic
	// order, on its own topic; the broker's counters agree.
	b.recv.mu.Lock()
	lost := b.recv.check.lost(b.next)
	dups, reord, misroute := b.recv.check.dups, b.recv.check.reord, b.recv.misroute
	b.recv.mu.Unlock()
	st := b.tb.Broker.Stats()
	attempted := b.sent + b.pubErrs
	bad := lost + dups + reord + misroute + b.pubErrs
	r.attempted, r.failed = attempted, bad
	r.diag("error_rate", "ratio", float64(bad)/float64(attempted), int(attempted))
	r.check(!p.drainFailed, "deliveries did not drain within 5 s")
	r.check(b.pubErrs == 0, "%d publishes failed", b.pubErrs)
	r.check(lost == 0, "%d messages lost", lost)
	r.check(dups == 0, "%d duplicate deliveries", dups)
	r.check(reord == 0, "%d deliveries out of per-topic order", reord)
	r.check(misroute == 0, "%d deliveries with a foreign topic or payload", misroute)
	r.check(st.PublishesIn == b.sent, "broker counted %d publishes in, bench sent %d", st.PublishesIn, b.sent)
	r.check(st.MessagesOut == b.recv.n.Load(), "broker counted %d messages out, subscriber got %d", st.MessagesOut, b.recv.n.Load())
	r.check(st.Dropped == 0, "broker dropped %d messages", st.Dropped)

	if cfg.traced {
		in, out := st.PublishesIn-stats0.PublishesIn, st.MessagesOut-stats0.MessagesOut
		r.layer("broker.publishes_in", "count", float64(in), 1)
		r.layer("broker.messages_out", "count", float64(out), 1)
		r.layer("broker.dropped", "count", float64(st.Dropped-stats0.Dropped), 1)
		r.layer("broker.delivery_ratio", "ratio", float64(out)/float64(in), int(in))
		r.layer("broker.duplicates", "count", float64(dups), int(attempted))
		r.layer("broker.reordered", "count", float64(reord), int(attempted))
		r.layer("core.start_ms", "ms", ms(b.startDur), 1)
		msgs := p.openMsgs + p.delivered
		r.layer("trace.records_per_op", "count", float64(b.tb.Log.Len()-log0)/float64(msgs), int(msgs))
		addProcMetrics(r, p.proc, msgs)
		if err := wireProbes(r, b.topics, b.payload(0, 0, 0, 0, false)); err != nil {
			return err
		}
		if err := inprocProbe(r, b.tb.Broker, b.payload(0, 0, 0, 0, false)); err != nil {
			return err
		}
	}
	return nil
}
