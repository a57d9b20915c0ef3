package swarm

import (
	"container/heap"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/profile"
)

// Profile selects the load-generation discipline. Every discipline
// runs as a compiled device profile: closed and open are sugar for a
// one-population synthetic profile (see LoadSpec.deviceProfile), so a
// run's message set is always a pure function of (spec, seed).
type Profile string

const (
	// ProfileClosed is closed-loop load: N devices each publishing once
	// per period, the classic "device fleet" shape. Offered load is
	// Devices/Period msgs/s; every device fires in phase at k·Period.
	ProfileClosed Profile = "closed"
	// ProfileOpen is open-loop load: a target message rate with Poisson
	// arrivals, seeded for determinism. Each device is an independent
	// Poisson source at Rate/Devices, which superposes to a Poisson
	// process at Rate — offered load independent of the system's speed,
	// the profile that exposes saturation.
	ProfileOpen Profile = "open"
	// ProfileProfiled drives a heterogeneous device-profile schedule
	// (LoadSpec.DeviceProfile): per-population cadences, payload
	// schemas, diurnal/burst modulation.
	ProfileProfiled Profile = "profiled"
)

// maxDeviceRate is the fastest per-device rate an open spec may ask
// for: the sampler floors every gap at 1 ms, so a faster device would
// silently offer less than the requested rate.
const maxDeviceRate = 1000

// LoadSpec describes one swarm load run.
type LoadSpec struct {
	Profile  Profile       `json:"profile"`
	Devices  int           `json:"devices"`
	Rate     float64       `json:"rate"`     // open-loop target msgs/s
	Period   time.Duration `json:"period"`   // closed-loop per-device period
	Duration time.Duration `json:"duration"` // total run length
	Workers  int           `json:"workers"`  // generator workers (one pod each)
	Seed     int64         `json:"seed"`
	QoS      byte          `json:"qos"`
	Subs     int           `json:"subscribers"` // wildcard consumers
	Prefix   string        `json:"prefix"`      // topic prefix, default "swarm"

	// DeviceProfile is the device-population mix for ProfileProfiled
	// runs; setting it selects that profile. Explicit population
	// counts override Devices; weighted populations split the Devices
	// budget.
	DeviceProfile *profile.Profile `json:"device_profile,omitempty"`
}

// WithDefaults fills unset fields with usable values and returns the
// result.
func (s LoadSpec) WithDefaults() LoadSpec {
	if s.DeviceProfile != nil {
		s.Profile = ProfileProfiled
		if s.Devices <= 0 {
			if n := s.DeviceProfile.TotalCount(); n > 0 {
				s.Devices = n
			}
		}
	}
	if s.Profile == "" {
		s.Profile = ProfileClosed
	}
	if s.Devices <= 0 {
		s.Devices = 100
	}
	if s.Rate <= 0 {
		s.Rate = 1000
	}
	if s.Period <= 0 {
		s.Period = time.Second
	}
	if s.Duration <= 0 {
		s.Duration = 10 * time.Second
	}
	if s.Workers <= 0 {
		s.Workers = 4
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.QoS > 1 {
		s.QoS = 1
	}
	if s.Subs <= 0 {
		s.Subs = 2
	}
	if s.Prefix == "" {
		s.Prefix = "swarm"
	}
	return s
}

// Validate rejects specs the generator cannot honour.
func (s LoadSpec) Validate() error {
	switch s.Profile {
	case ProfileClosed, ProfileOpen:
	case ProfileProfiled:
		if s.DeviceProfile == nil {
			return fmt.Errorf("swarm: profiled load needs a DeviceProfile")
		}
		if err := s.DeviceProfile.Validate(); err != nil {
			return fmt.Errorf("swarm: %w", err)
		}
	default:
		return fmt.Errorf("swarm: unknown profile %q (want %q, %q or %q)",
			s.Profile, ProfileClosed, ProfileOpen, ProfileProfiled)
	}
	if s.Devices <= 0 {
		return fmt.Errorf("swarm: devices must be positive")
	}
	if s.Profile == ProfileOpen {
		if s.Rate <= 0 {
			return fmt.Errorf("swarm: open profile needs a positive rate")
		}
		if s.Rate/float64(s.Devices) > maxDeviceRate {
			return fmt.Errorf("swarm: open rate %.0f msg/s over %d devices exceeds %d msg/s per device; add devices",
				s.Rate, s.Devices, maxDeviceRate)
		}
	}
	if s.Profile == ProfileClosed && s.Period <= 0 {
		return fmt.Errorf("swarm: closed profile needs a positive period")
	}
	return nil
}

// deviceProfile is the profile a defaulted spec compiles: the
// DeviceProfile itself for profiled runs, otherwise a one-population
// synthetic profile. Its devices keep the plain "prefix/dev-N/status"
// topics, fire at a fixed Period (closed) or as Poisson sources at
// Rate/Devices each (open), and carry one random-walk reading v.
func (s LoadSpec) deviceProfile() *profile.Profile {
	if s.Profile == ProfileProfiled {
		return s.DeviceProfile
	}
	cad := profile.Cadence{Dist: profile.DistFixed, Mean: s.Period}
	if s.Profile == ProfileOpen {
		cad = profile.Cadence{
			Dist: profile.DistPoisson,
			Mean: time.Duration(float64(time.Second) * float64(s.Devices) / s.Rate),
		}
	}
	return &profile.Profile{
		Name: string(s.Profile),
		Seed: s.Seed,
		Populations: []profile.Population{{
			Kind:    "dev",
			Count:   s.Devices,
			Cadence: cad,
			Fields:  []profile.Field{{Name: "v", Gen: profile.GenRandomWalk, Min: 0, Max: 1}},
		}},
	}
}

// DeviceTopic returns the status topic for device i under prefix —
// "swarm/dev-7/status" style, a three-level topic so the obs topic
// class collapses every device to one histogram child.
func DeviceTopic(prefix string, i int) string {
	return fmt.Sprintf("%s/dev-%d/status", prefix, i)
}

// Fire is the generator's emit callback: device index, the message's
// scheduled offset from run start, and the sampled payload. Fire must
// be safe for concurrent use across devices; a single device is only
// ever fired by its owning worker.
type Fire func(device int, at time.Duration, payload []byte)

// Generator paces fire callbacks according to a LoadSpec. Create with
// NewGenerator, then run each worker (RunWorker) until its context
// ends — typically one worker per kube pod so placement is exercised.
type Generator struct {
	spec    LoadSpec
	fire    Fire
	clk     clock.Clock
	sampler *profile.Sampler
	count   int64
}

// NewGenerator builds a generator over a defaulted, validated spec.
// fire is called for every generated message; it must be safe for
// concurrent use. The spec's device profile is compiled here, so an
// unsatisfiable profile fails fast rather than producing a silent
// zero-message run.
func NewGenerator(spec LoadSpec, fire Fire) (*Generator, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s, err := profile.Compile(spec.deviceProfile(), spec.Devices, spec.Seed)
	if err != nil {
		return nil, err
	}
	spec.Devices = s.Devices()
	return &Generator{spec: spec, fire: fire, clk: clock.System, sampler: s}, nil
}

// SetClock replaces the generator's pacing clock (default: the wall
// clock). Call before RunWorker; a virtual clock lets a load run be
// driven in compressed time.
func (g *Generator) SetClock(c clock.Clock) { g.clk = clock.Or(c) }

// Spec returns the defaulted spec the generator runs.
func (g *Generator) Spec() LoadSpec { return g.spec }

// Workers returns how many workers RunWorker expects (0..Workers-1).
func (g *Generator) Workers() int { return g.spec.Workers }

// Published returns the number of fire calls made so far.
func (g *Generator) Published() int64 { return atomic.LoadInt64(&g.count) }

// RunWorker drives worker w until its slice of the schedule runs dry
// or ctx is cancelled. The worker terminates intrinsically: the
// schedule runs dry when every owned device's next arrival falls past
// Duration. No clocked cancel is armed, because a cancel firing at
// exactly the Duration boundary would race the final arrivals and
// make the emitted message set depend on timer ordering.
func (g *Generator) RunWorker(ctx context.Context, w int) error {
	if w < 0 || w >= g.spec.Workers {
		return fmt.Errorf("swarm: worker %d out of range [0,%d)", w, g.spec.Workers)
	}
	return g.runProfiled(ctx, w)
}

// pendArrival is one scheduled profiled message waiting to fire.
type pendArrival struct {
	at      time.Duration
	device  int
	payload []byte
}

// pendHeap orders pending arrivals by (offset, device) — the device
// tiebreak keeps the within-worker fire order deterministic when two
// devices land on the same instant.
type pendHeap []pendArrival

func (h pendHeap) Len() int { return len(h) }
func (h pendHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].device < h[j].device
}
func (h pendHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pendHeap) Push(x any)   { *h = append(*h, x.(pendArrival)) }
func (h *pendHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// runProfiled drives this worker's device slice through the compiled
// sampler schedule: a min-heap of pending arrivals, each fired at its
// sampled offset on the generator clock, each immediately replaced by
// the device's next draw. The message set — contents, per-device
// order, count — is a pure function of (profile, seed, duration);
// the clock only stretches or compresses the waits between firings.
func (g *Generator) runProfiled(ctx context.Context, w int) error {
	var h pendHeap
	for d := w; d < g.spec.Devices; d += g.spec.Workers {
		at, payload := g.sampler.NextFire(d)
		if at < g.spec.Duration {
			heap.Push(&h, pendArrival{at, d, payload})
		}
	}
	start := g.clk.Now()
	for h.Len() > 0 {
		next := h[0]
		if sleep := next.at - g.clk.Since(start); sleep > 0 {
			select {
			case <-g.clk.After(sleep):
			case <-ctx.Done():
				return nil
			}
		} else if err := ctx.Err(); err != nil {
			return nil
		}
		heap.Pop(&h)
		g.fire(next.device, next.at, next.payload)
		atomic.AddInt64(&g.count, 1)
		if at, payload := g.sampler.NextFire(next.device); at < g.spec.Duration {
			heap.Push(&h, pendArrival{at, next.device, payload})
		}
	}
	return nil
}
