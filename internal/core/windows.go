package core

import (
	"fmt"

	"repro/internal/units"
)

// WindowPoint is one measurement window of a RunWindows series.
type WindowPoint struct {
	// Start is the window's offset from the beginning of the run
	// (warmup excluded).
	Start units.Time
	Gbps  float64
	Mpps  float64
}

// RunWindows runs one simulation and measures cfg.Duration in n consecutive
// windows, exposing time dynamics that a single aggregate hides: Snabb's
// JIT warmup ramp, the instability phases behind the 0.99·R⁺ tails, or
// queue-fill transients (pass a short cfg.Warmup: the transient is the
// point). The aggregate Result is Run's over the full duration, except for
// Steps: a rate-mode generator's batch is cut at every window boundary.
func RunWindows(cfg Config, n int) ([]WindowPoint, Result, error) {
	if n < 1 {
		return nil, Result{}, fmt.Errorf("core: need at least one window")
	}
	m, err := warmUp(cfg)
	if err != nil {
		return nil, Result{}, err
	}
	cfg = m.tb.cfg

	window := cfg.Duration / units.Time(n)
	points := make([]WindowPoint, 0, n)
	prev := m.rx
	for w := 0; w < n; w++ {
		m.tb.sched.RunUntil(cfg.Warmup + units.Time(w+1)*window)
		cur := m.tb.rxCounters()
		var pkts, bytes int64
		for i := range cur {
			d := cur[i].Sub(prev[i])
			pkts += d.Packets
			bytes += d.Bytes
		}
		points = append(points, WindowPoint{
			Start: units.Time(w) * window,
			Gbps:  units.WireGbpsBytes(pkts, bytes, window),
			Mpps:  units.Mpps(pkts, window),
		})
		prev = cur
	}
	res, err := m.collect()
	if err != nil {
		return nil, Result{}, err
	}
	return points, res, nil
}
