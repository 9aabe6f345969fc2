package core

import (
	"fmt"

	"repro/internal/stats"
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
// queue-fill transients. The aggregate Result matches Run over the full
// duration.
func RunWindows(cfg Config, n int) ([]WindowPoint, Result, error) {
	if n < 1 {
		return nil, Result{}, fmt.Errorf("core: need at least one window")
	}
	tb, err := build(cfg)
	if err != nil {
		return nil, Result{}, err
	}
	cfg = tb.cfg

	// Unlike Run, no warmup is skipped by default here unless requested:
	// the transient is the point. Honour cfg.Warmup as a lead-in.
	tb.sched.RunUntil(cfg.Warmup)

	window := cfg.Duration / units.Time(n)
	points := make([]WindowPoint, 0, n)
	var startSnap []stats.Counter
	snap := func() []stats.Counter {
		out := make([]stats.Counter, len(tb.dirRx))
		for i, fn := range tb.dirRx {
			out[i] = fn()
		}
		return out
	}
	startSnap = snap()
	prev := startSnap
	for w := 0; w < n; w++ {
		end := cfg.Warmup + units.Time(w+1)*window
		tb.sched.RunUntil(end)
		cur := snap()
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

	// Aggregate result over the full measured span.
	res := Result{Config: cfg, Display: tb.info.Display, Steps: tb.sched.Steps()}
	final := snap()
	for i := range final {
		d := final[i].Sub(startSnap[i])
		dir := DirResult{
			RxPackets: d.Packets,
			RxBytes:   d.Bytes,
			Gbps:      units.WireGbpsBytes(d.Packets, d.Bytes, cfg.Duration),
			Mpps:      units.Mpps(d.Packets, cfg.Duration),
		}
		res.Dirs = append(res.Dirs, dir)
		res.Gbps += dir.Gbps
		res.Mpps += dir.Mpps
	}
	for _, fn := range tb.dropFns {
		res.Drops += fn()
	}
	tb.releasePools()
	return points, res, nil
}
