package main

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/profile"
)

// seqChecker is the exactly-once, in-order oracle for per-topic
// sequence numbers. Each topic's publisher numbers its messages 0, 1,
// 2, ... and publishes them in that order; observe is called once per
// delivery. Not safe for concurrent use.
type seqChecker struct {
	seen   [][]uint8 // topic → deliveries per seq (saturating)
	maxSeq []int     // topic → highest seq delivered, -1 before any
	dups   int64
	reord  int64
}

func newSeqChecker(topics int) *seqChecker {
	c := &seqChecker{seen: make([][]uint8, topics), maxSeq: make([]int, topics)}
	for i := range c.maxSeq {
		c.maxSeq[i] = -1
	}
	return c
}

// observe records one delivery of seq on topic. A second delivery of
// the same seq is a duplicate; a first delivery below the highest seq
// already seen arrived out of order.
func (c *seqChecker) observe(topic, seq int) {
	s := c.seen[topic]
	for len(s) <= seq {
		s = append(s, 0)
	}
	c.seen[topic] = s
	if s[seq] > 0 {
		c.dups++
		if s[seq] < 255 {
			s[seq]++
		}
		return
	}
	s[seq] = 1
	if seq < c.maxSeq[topic] {
		c.reord++
	}
	c.maxSeq[topic] = max(c.maxSeq[topic], seq)
}

// lost counts the seqs below sent[topic] never delivered.
func (c *seqChecker) lost(sent []int) int64 {
	var n int64
	for t, want := range sent {
		s := c.seen[t]
		for q := 0; q < want; q++ {
			if q >= len(s) || s[q] == 0 {
				n++
			}
		}
	}
	return n
}

// tapDigest folds delivered (topic, payload) traffic into a digest
// that does not depend on how deliveries of different topics
// interleave: each topic's payloads chain into one SHA-256 in
// delivery order, and the chains fold in sorted topic order. Safe for
// concurrent use.
type tapDigest struct {
	mu     sync.Mutex
	chains map[string]hash.Hash
	counts map[string]int64
}

func newTapDigest() *tapDigest {
	return &tapDigest{chains: map[string]hash.Hash{}, counts: map[string]int64{}}
}

func (t *tapDigest) observe(topic string, payload []byte) {
	t.mu.Lock()
	h, ok := t.chains[topic]
	if !ok {
		h = sha256.New()
		h.Write([]byte(topic))
		t.chains[topic] = h
	}
	h.Write(payload)
	t.counts[topic]++
	t.mu.Unlock()
}

// sum returns the folded digest and the total message count.
func (t *tapDigest) sum() (string, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fold := sha256.New()
	var total int64
	for _, topic := range sortedKeys(t.chains) {
		fold.Write(t.chains[topic].Sum(nil))
		total += t.counts[topic]
	}
	return hex.EncodeToString(fold.Sum(nil)), total
}

// expectedTapDigest walks the compiled profile's schedule with no
// clock and folds it exactly as a tapDigest folds live traffic: what
// a correct run of the profile over window must deliver, at any speed.
func expectedTapDigest(p *profile.Profile, seed int64, window time.Duration, prefix string) (string, int64, error) {
	want := newTapDigest()
	s, err := profile.Compile(p, 0, seed)
	if err != nil {
		return "", 0, err
	}
	err = profile.Walk(p, 0, seed, window, func(d int, _ time.Duration, payload []byte) {
		want.observe(s.DeviceTopic(prefix, d), payload)
	})
	if err != nil {
		return "", 0, err
	}
	digest, n := want.sum()
	return digest, n, nil
}

// sourceID identifies the code under test by a SHA-256 over the source
// tree's Go, go.mod and YAML files, which works in a checkout with no
// version control. run.sh starts the benchmark from the tree's root.
func sourceID() string {
	var files []string
	filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".mod") || strings.HasSuffix(path, ".yaml")) {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(data)
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
