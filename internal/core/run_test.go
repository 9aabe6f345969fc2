package core

import (
	"math"
	"testing"

	"repro/internal/units"
)

// TestRunWindowsAggregateMatchesRun holds RunWindows' aggregate to Run's:
// one window is the same measurement, and slicing the span into four
// moves no simulated output — only Steps, because a rate-mode generator's
// batch is cut at each RunUntil deadline.
func TestRunWindowsAggregateMatchesRun(t *testing.T) {
	cells := []struct {
		name string
		cfg  Config
		// exercised reports whether the cell measured what it is here for.
		exercised func(Result) bool
	}{
		// Saturating 64 B overloads OvS from time zero: the warmup's drops
		// must not count, and offered load and busy fraction must be set.
		{"overloaded", Config{Switch: "ovs", Scenario: P2P, FrameLen: 64,
			Duration: 4 * units.Millisecond, Warmup: 2 * units.Millisecond},
			func(r Result) bool { return r.Drops > 0 && r.SUTBusyFrac > 0 }},
		// A paced guest chain with probes: latency and host copies.
		{"paced-probes", Config{Switch: "vpp", Scenario: Loopback, Chain: 2, FrameLen: 64,
			Rate: units.RateForPPS(1e6, 64), ProbeEvery: DefaultProbeEvery,
			Duration: 4 * units.Millisecond, Warmup: units.Millisecond},
			func(r Result) bool { return r.Latency.N > 0 && r.HostCopies > 0 }},
	}
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.exercised(want) {
				t.Fatalf("cell does not measure what it is here for: %+v", want)
			}
			_, one, err := RunWindows(tc.cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			if resultDigest(t, one) != resultDigest(t, want) {
				t.Errorf("RunWindows(cfg, 1) differs from Run(cfg):\n got %+v\nwant %+v", one, want)
			}
			pts, four, err := RunWindows(tc.cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(pts) != 4 {
				t.Fatalf("windows = %d, want 4", len(pts))
			}
			// The windows partition the span: an edge that counted a frame
			// twice, or in no window, moves their mean off the aggregate.
			var sum float64
			for _, p := range pts {
				sum += p.Mpps
			}
			if mean := sum / 4; math.Abs(mean-four.Mpps) > 1e-9*four.Mpps {
				t.Errorf("mean of the 4 windows' Mpps = %.12g, aggregate %.12g", mean, four.Mpps)
			}
			four.Steps, want.Steps = 0, 0
			if resultDigest(t, four) != resultDigest(t, want) {
				t.Errorf("RunWindows(cfg, 4) differs from Run(cfg) beyond Steps:\n got %+v\nwant %+v", four, want)
			}
		})
	}
}
