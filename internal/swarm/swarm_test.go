package swarm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/profile"
)

func TestRingPlacement(t *testing.T) {
	r := newRing(4)
	// Deterministic: same key, same shard, every time.
	for _, key := range []string{"swarm/dev-1/status", "app-a", "x"} {
		first := r.shardFor(key)
		for i := 0; i < 10; i++ {
			if got := r.shardFor(key); got != first {
				t.Fatalf("shardFor(%q) flapped: %d then %d", key, first, got)
			}
		}
	}
	// Roughly uniform: over 10k device topics each of 4 shards should
	// hold a non-trivial share (loose bounds; vnodes keep skew low).
	counts := make([]int, 4)
	for i := 0; i < 10000; i++ {
		counts[r.shardFor(DeviceTopic("swarm", i))]++
	}
	for s, c := range counts {
		if c < 1000 || c > 5000 {
			t.Fatalf("shard %d holds %d of 10000 keys — ring badly skewed: %v", s, c, counts)
		}
	}
}

func TestLoadSpecValidate(t *testing.T) {
	bogus := LoadSpec{Profile: "bogus"}.WithDefaults()
	if err := bogus.Validate(); err == nil {
		t.Fatal("bogus profile accepted")
	}
	defaulted := LoadSpec{}.WithDefaults()
	if err := defaulted.Validate(); err != nil {
		t.Fatalf("defaulted spec rejected: %v", err)
	}
	// The sampler floors gaps at 1 ms, so more than 1,000 msg/s per
	// device would silently offer less than the requested rate.
	fast := LoadSpec{Profile: ProfileOpen, Devices: 4, Rate: 4001}.WithDefaults()
	if err := fast.Validate(); err == nil || !strings.Contains(err.Error(), "add devices") {
		t.Fatalf("open rate over 1000 msg/s per device: err = %v, want an add-devices error", err)
	}
	fast.Rate = 4000
	if err := fast.Validate(); err != nil {
		t.Fatalf("open rate of exactly 1000 msg/s per device rejected: %v", err)
	}
}

// topicDigest folds per-topic payload streams into one SHA-256 digest:
// each topic's payloads chain in arrival order, and the chains fold in
// sorted topic order, so the digest ignores cross-device interleaving.
type topicDigest struct {
	mu     sync.Mutex
	chains map[string]hash.Hash
}

func newTopicDigest() *topicDigest { return &topicDigest{chains: map[string]hash.Hash{}} }

func (d *topicDigest) observe(topic string, payload []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := d.chains[topic]
	if h == nil {
		h = sha256.New()
		d.chains[topic] = h
	}
	h.Write(payload)
}

func (d *topicDigest) sum() (string, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	topics := make([]string, 0, len(d.chains))
	for topic := range d.chains {
		topics = append(topics, topic)
	}
	sort.Strings(topics)
	fold := sha256.New()
	for _, topic := range topics {
		fold.Write([]byte(topic))
		fold.Write(d.chains[topic].Sum(nil))
	}
	return hex.EncodeToString(fold.Sum(nil)), len(topics)
}

// TestSyntheticLoadOracle holds closed and open sessions, run unpaced
// at SpeedMax, to the clock-free oracles of their synthetic profile:
// every device fires, deliveries equal Subs × the ExpectedCounts
// total with zero loss, and a delivery-side tap digests to exactly the
// profile.Walk schedule.
func TestSyntheticLoadOracle(t *testing.T) {
	for _, spec := range []LoadSpec{
		{Profile: ProfileClosed, Devices: 23, Period: 40 * time.Millisecond,
			Duration: 2 * time.Second, Workers: 4, QoS: 1, Subs: 2, Seed: 1},
		{Profile: ProfileOpen, Devices: 50, Rate: 4000,
			Duration: 2 * time.Second, Workers: 3, QoS: 1, Subs: 2, Seed: 42},
	} {
		t.Run(string(spec.Profile), func(t *testing.T) {
			spec = spec.WithDefaults()
			p := spec.deviceProfile()
			counts, err := profile.ExpectedCounts(p, spec.Devices, spec.Seed, spec.Duration)
			if err != nil {
				t.Fatal(err)
			}
			want := newTopicDigest()
			err = profile.Walk(p, spec.Devices, spec.Seed, spec.Duration,
				func(d int, _ time.Duration, payload []byte) {
					want.observe(DeviceTopic(spec.Prefix, d), payload)
				})
			if err != nil {
				t.Fatal(err)
			}
			wantDigest, _ := want.sum()

			pool := NewPool(PoolOptions{Shards: 3})
			defer pool.Close()
			tap := newTopicDigest()
			filter := spec.Prefix + "/+/status"
			if err := pool.Subscribe("oracle-tap", filter, spec.QoS, func(m broker.Message) {
				tap.observe(m.Topic, m.Payload)
			}); err != nil {
				t.Fatal(err)
			}
			sess, err := NewSession(pool, spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			clk := clock.NewScaled(clock.SpeedMax, nil)
			go clk.Drive()
			defer clk.Stop()
			sess.SetClock(clk)
			var wg sync.WaitGroup
			for w := 0; w < sess.Workers(); w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					if err := sess.RunWorker(context.Background(), w); err != nil {
						t.Error(err)
					}
				}(w)
			}
			wg.Wait()
			rep := sess.Finish(5 * time.Second)
			pool.Unsubscribe("oracle-tap", filter)

			gotDigest, fired := tap.sum()
			if fired != spec.Devices {
				t.Fatalf("%d of %d devices fired", fired, spec.Devices)
			}
			total := counts["dev"]
			if rep.Published != total || rep.Delivered != int64(spec.Subs)*total {
				t.Fatalf("published %d, delivered %d; oracle expects %d and %d",
					rep.Published, rep.Delivered, total, int64(spec.Subs)*total)
			}
			if rep.Lost != 0 {
				t.Fatalf("lost %d of %d expected deliveries", rep.Lost, rep.Expected)
			}
			if gotDigest != wantDigest {
				t.Fatalf("tap digest %s != clock-free walk digest %s", gotDigest, wantDigest)
			}
		})
	}
}

// TestSessionClosedLoop runs a small end-to-end closed-loop session
// over a 3-shard pool and requires exact QoS 1 accounting: zero loss,
// delivered == published × subscribers.
func TestSessionClosedLoop(t *testing.T) {
	testSessionProfile(t, LoadSpec{
		Profile: ProfileClosed, Devices: 40, Period: 30 * time.Millisecond,
		Duration: 200 * time.Millisecond, Workers: 4, QoS: 1, Subs: 3, Seed: 7,
	})
}

// TestSessionOpenLoop does the same for the open-loop Poisson profile.
func TestSessionOpenLoop(t *testing.T) {
	testSessionProfile(t, LoadSpec{
		Profile: ProfileOpen, Devices: 40, Rate: 3000,
		Duration: 200 * time.Millisecond, Workers: 4, QoS: 1, Subs: 3, Seed: 7,
	})
}

func testSessionProfile(t *testing.T, spec LoadSpec) {
	t.Helper()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg)
	tracer.SetSampleInterval(1) // every message, so quantiles have samples
	pool := NewPool(PoolOptions{Shards: 3, Obs: reg, Tracer: tracer})
	defer pool.Close()
	sess, err := NewSession(pool, spec, reg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < sess.Workers(); w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sess.RunWorker(context.Background(), w); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	rep := sess.Finish(5 * time.Second)
	if rep.Published == 0 {
		t.Fatal("nothing published")
	}
	if rep.Lost != 0 {
		t.Fatalf("lost %d of %d expected deliveries: %+v", rep.Lost, rep.Expected, rep)
	}
	if rep.Delivered != rep.Published*int64(spec.Subs) {
		t.Fatalf("delivered %d, want %d", rep.Delivered, rep.Published*int64(spec.Subs))
	}
	if err := rep.Gate(10_000); err != nil {
		t.Fatalf("gate failed: %v", err)
	}
	if rep.LatencySamples == 0 || rep.P99Ms <= 0 {
		t.Fatalf("no latency samples in report: %+v", rep)
	}
	if rep.Shards != 3 || len(rep.PerShard) != 3 {
		t.Fatalf("per-shard stats missing: %+v", rep)
	}
	// With 3 shards and wildcard consumers spread by client hash, the
	// bridge must have forwarded something.
	if rep.BridgeForwards == 0 {
		t.Fatal("bridge forwarded nothing — pool degenerated to one shard")
	}
	// Round-trip the JSON artifact.
	path := t.TempDir() + "/BENCH_swarm.json"
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
}

// TestRequiredShards pins the guidance function V015 and dbox share.
func TestRequiredShards(t *testing.T) {
	cases := map[int]int{1: 1, 999: 1, 1000: 1, 1001: 2, 2000: 2, 2001: 3, 10000: 10}
	for devices, want := range cases {
		if got := RequiredShards(devices); got != want {
			t.Fatalf("RequiredShards(%d) = %d, want %d", devices, got, want)
		}
	}
}

// TestPoolMetricsFamilies checks the pool registers its aggregate
// families and they gather live values.
func TestPoolMetricsFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	pool := NewPool(PoolOptions{Shards: 2, Obs: reg})
	defer pool.Close()
	done := make(chan struct{})
	if err := pool.Subscribe("m", "m/+/x", 0, func(broker.Message) { close(done) }); err != nil {
		t.Fatal(err)
	}
	if err := pool.Publish("p", "m/1/x", []byte("v"), 0, false); err != nil {
		t.Fatal(err)
	}
	<-done
	vals := reg.Values()
	if vals["digibox_swarm_shards"] != 2 {
		t.Fatalf("digibox_swarm_shards = %v", vals["digibox_swarm_shards"])
	}
	if vals["digibox_swarm_publishes_total"] < 1 {
		t.Fatalf("digibox_swarm_publishes_total = %v", vals["digibox_swarm_publishes_total"])
	}
	if vals["digibox_swarm_deliveries_total"] < 1 {
		t.Fatalf("digibox_swarm_deliveries_total = %v", vals["digibox_swarm_deliveries_total"])
	}
}
