package swarm

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/profile"
)

func profiledSpec() LoadSpec {
	return LoadSpec{
		Duration: 2 * time.Second,
		Workers:  3,
		Seed:     17,
		DeviceProfile: &profile.Profile{
			Name: "xspeed",
			Seed: 17,
			Populations: []profile.Population{
				{Kind: "thermostat", Count: 5,
					Cadence: profile.Cadence{Dist: profile.DistPoisson, Mean: 120 * time.Millisecond},
					Fields:  []profile.Field{{Name: "t", Gen: profile.GenSine, Min: 18, Max: 26, Period: time.Minute}}},
				{Kind: "meter", Count: 4,
					Cadence: profile.Cadence{Dist: profile.DistFixed, Mean: 80 * time.Millisecond},
					Fields:  []profile.Field{{Name: "kwh", Gen: profile.GenRandomWalk, Min: 0, Max: 10}}},
				{Kind: "cam", Count: 3,
					Cadence: profile.Cadence{Dist: profile.DistLognormal, Mean: 150 * time.Millisecond, Sigma: 0.5},
					Burst:   &profile.Burst{Every: time.Second, Length: 100 * time.Millisecond, Factor: 4}},
			},
		},
	}
}

type firedMsg struct {
	at      time.Duration
	payload []byte
}

// runProfiledOn drives every worker of a profiled generator on the
// given clock and returns the per-device fire streams. start anchors
// offsets; drive starts the clock's pump after the workers are up.
func runProfiledOn(t *testing.T, clk clock.Clock, drive func(), done func()) map[int][]firedMsg {
	t.Helper()
	var mu sync.Mutex
	streams := map[int][]firedMsg{}
	start := clk.Now()
	g, err := NewGenerator(profiledSpec(), func(device int, _ time.Duration, payload []byte) {
		mu.Lock()
		streams[device] = append(streams[device], firedMsg{clk.Since(start), append([]byte(nil), payload...)})
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	g.SetClock(clk)
	var wg sync.WaitGroup
	for w := 0; w < g.Workers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := g.RunWorker(context.Background(), w); err != nil {
				t.Error(err)
			}
		}(w)
	}
	if drive != nil {
		drive()
	}
	wg.Wait()
	if done != nil {
		done()
	}
	return streams
}

// TestProfiledCrossSpeedDeterminism is the profile determinism table:
// the same (profile, seed) produces byte-identical per-device message
// streams — payloads and scenario-time offsets — on a hand-stepped
// clock.Virtual, a paced clock.Scaled at a finite factor, and an
// unpaced clock.Scaled at SpeedMax; and all of them match the pure
// arithmetic profile.Walk oracle.
func TestProfiledCrossSpeedDeterminism(t *testing.T) {
	// Oracle: the clockless walk.
	spec := profiledSpec()
	oracle := map[int][]firedMsg{}
	err := profile.Walk(spec.DeviceProfile, 0, spec.Seed, spec.Duration,
		func(device int, at time.Duration, payload []byte) {
			oracle[device] = append(oracle[device], firedMsg{at, append([]byte(nil), payload...)})
		})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range oracle {
		total += len(s)
	}
	if total == 0 {
		t.Fatal("oracle walk produced no messages")
	}

	runs := map[string]map[int][]firedMsg{}

	// clock.Virtual, stepped by hand until the workers drain.
	{
		v := clock.NewVirtual()
		var drained sync.WaitGroup
		drained.Add(1)
		finished := make(chan struct{})
		go func() {
			defer drained.Done()
			for {
				select {
				case <-finished:
					return
				default:
				}
				if !v.Step(clock.Epoch.Add(time.Hour)) {
					// No timer armed yet: let the workers arm one.
					runtime.Gosched()
				}
			}
		}()
		runs["virtual"] = runProfiledOn(t, v, nil, func() { close(finished) })
		drained.Wait()
	}

	// clock.Scaled at a finite factor and unpaced.
	for name, factor := range map[string]float64{
		"scaled-10000x": 10000,
		"scaled-max":    clock.SpeedMax,
	} {
		s := clock.NewScaled(factor, nil)
		go s.Drive()
		runs[name] = runProfiledOn(t, s, nil, s.Stop)
	}

	for name, got := range runs {
		if len(got) != len(oracle) {
			t.Fatalf("%s: %d devices fired, oracle has %d", name, len(got), len(oracle))
		}
		for d, want := range oracle {
			g := got[d]
			if len(g) != len(want) {
				t.Fatalf("%s: device %d fired %d messages, oracle %d", name, d, len(g), len(want))
			}
			for i := range want {
				if !bytes.Equal(g[i].payload, want[i].payload) {
					t.Fatalf("%s: device %d message %d payload diverges:\n  got  %s\n  want %s",
						name, d, i, g[i].payload, want[i].payload)
				}
			}
		}
	}
}

// TestProfiledDefaultsAndValidation covers the spec plumbing: setting
// DeviceProfile selects the profiled discipline, explicit population
// counts override the device budget, and an unsatisfiable profile
// fails generator construction.
func TestProfiledDefaultsAndValidation(t *testing.T) {
	spec := profiledSpec().WithDefaults()
	if spec.Profile != ProfileProfiled {
		t.Fatalf("profile = %q, want %q", spec.Profile, ProfileProfiled)
	}
	if spec.Devices != 12 {
		t.Fatalf("devices = %d, want the profile's 12 explicit devices", spec.Devices)
	}

	bad := profiledSpec()
	bad.DeviceProfile.Populations[0].Cadence.Mean = 0
	if _, err := NewGenerator(bad, func(int, time.Duration, []byte) {}); err == nil {
		t.Fatal("unsatisfiable profile accepted by NewGenerator")
	}
}
