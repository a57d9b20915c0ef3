package main

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/broker"
)

// probeLoop calls fn n times in rounds and returns the median ns per
// call over the rounds and the allocations per call over all of them.
func probeLoop(n int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	const rounds = 5
	fn(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	per := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	runtime.ReadMemStats(&after)
	return median(per), float64(after.Mallocs-before.Mallocs) / float64(rounds*n)
}

// wireProbes times the MQTT codec on the workload's own PUBLISH
// packets and topic validation on its topics, from outside: Encode,
// ReadPacket over the encoded bytes, and ValidateTopicName.
func wireProbes(r *result, topics []string, payload []byte) error {
	pkt := &broker.Packet{Type: broker.PUBLISH, Topic: topics[0], Payload: payload, QoS: 1, PacketID: 1}
	data, err := pkt.Encode()
	if err != nil {
		return err
	}
	const n = 20000
	var sink int
	ns, allocs := probeLoop(n, func(int) {
		b, _ := pkt.Encode()
		sink += len(b)
	})
	r.layer("broker.encode_ns", "ns", ns, 5*n)
	r.layer("broker.encode_allocs", "count", allocs, 5*n)
	rd := bytes.NewReader(data)
	var decodeErr error
	ns, allocs = probeLoop(n, func(int) {
		rd.Reset(data)
		if _, err := broker.ReadPacket(rd); err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return decodeErr
	}
	r.layer("broker.decode_ns", "ns", ns, 5*n)
	r.layer("broker.decode_allocs", "count", allocs, 5*n)
	ns, _ = probeLoop(n, func(i int) {
		if broker.ValidateTopicName(topics[i%len(topics)]) != nil {
			sink++
		}
	})
	r.layer("broker.validate_ns", "ns", ns, 5*n)
	_ = sink
	return nil
}

// inprocProbe times Broker.PublishFrom on a side topic that one
// SubscribeInProcess handler receives: route and trie, no wire.
func inprocProbe(r *result, b *broker.Broker, payload []byte) error {
	const filter, topic, n = "perfbench/probe/+", "perfbench/probe/x", 20000
	var got atomic.Int64
	if err := b.SubscribeInProcess("perfbench-probe", filter, 0, func(broker.Message) { got.Add(1) }); err != nil {
		return err
	}
	defer b.UnsubscribeInProcess("perfbench-probe", filter)
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := b.PublishFrom("perfbench", topic, payload, false); err != nil {
			return err
		}
		lat = append(lat, usSince(t))
	}
	r.layer("broker.inproc_publish_us", "us", median(lat), len(lat))
	r.check(got.Load() == n, "in-process probe: %d of %d deliveries", got.Load(), n)
	return nil
}
