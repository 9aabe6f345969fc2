package core

import (
	"cmp"
	"fmt"

	"repro/internal/nic"
	"repro/internal/stats"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

// Run executes one measurement: assemble the testbed, run the warmup,
// then measure over the configured window.
func Run(cfg Config) (Result, error) {
	return measure(cfg, 1, nil)
}

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
	points := make([]WindowPoint, 0, n)
	var prev tally
	res, err := measure(cfg, n, func(tb *testbed, w int, cur tally) {
		if w > 0 {
			var pkts, bytes int64
			for i := range cur.rx {
				d := cur.rx[i].Sub(prev.rx[i])
				pkts += d.Packets
				bytes += d.Bytes
			}
			window := cur.at - prev.at
			points = append(points, WindowPoint{
				Start: prev.at - tb.cfg.Warmup,
				Gbps:  units.WireGbpsBytes(pkts, bytes, window),
				Mpps:  units.Mpps(pkts, window),
			})
		}
		prev = cur
	})
	if err != nil {
		return nil, Result{}, err
	}
	return points, res, nil
}

// measure is the one measurement loop. It assembles cfg's testbed, runs
// the warmup — caches fill, MAC tables learn, JIT traces compile, queues
// reach steady state — and opens the window: counters tallied, latency
// histograms reset. It then advances the window in n equal steps and
// returns the Result over the whole window. edge, when non-nil, sees the
// testbed and its tally at the window's opening (w = 0) and at the end of
// each step (w = 1..n).
func measure(cfg Config, n int, edge func(tb *testbed, w int, t tally)) (Result, error) {
	tb, err := build(cfg)
	if err != nil {
		return Result{}, err
	}
	defer tb.close()
	cfg = tb.cfg
	if cfg.CapturePath != "" {
		if err := tb.attachCapture(cfg.CapturePath); err != nil {
			return Result{}, err
		}
	}

	var start, end tally
	for w := 0; w <= n; w++ {
		at := cfg.Warmup + units.Time(w)*cfg.Duration/units.Time(n)
		tb.sched.RunUntil(at)
		end = tb.tally(at)
		if w == 0 {
			start = end
			for _, e := range tb.endpoints {
				e.hist.Reset()
			}
		}
		if edge != nil {
			edge(tb, w, end)
		}
	}
	if tb.controller != nil && tb.controller.Err != nil {
		return Result{}, tb.controller.Err
	}
	return tb.result(start, end), nil
}

// tally is every counter a Result reports, read at one instant. The
// counters accumulate from time zero, so a window's totals are the
// difference of the tallies at its edges — otherwise warmup-phase drops
// (queues filling, MAC tables learning) pollute the measurement the way
// warmup frames would pollute RxPackets.
type tally struct {
	at                 units.Time      // simulated time of the reading
	rx                 []stats.Counter // per direction
	drops, copies      int64
	busy, idle         []units.Cycles // per SUT poll core
	updates, evictions int64
}

// tally reads every counter the Result reports.
func (tb *testbed) tally(at units.Time) tally {
	t := tally{
		at:   at,
		rx:   make([]stats.Counter, len(tb.endpoints)),
		busy: make([]units.Cycles, len(tb.sutPolls)),
		idle: make([]units.Cycles, len(tb.sutPolls)),
	}
	for i, e := range tb.endpoints {
		t.rx[i] = *e.rx
	}
	for _, p := range tb.ports {
		switch d := p.dev.(type) {
		case *switchdef.PhysPort:
			// The full-ring drops of the NICs at both ends of the wire.
			for _, n := range []*nic.Port{d.Port, p.gen} {
				t.drops += n.Stats.RxDropsFull + n.Stats.TxDropsFull
			}
		case *switchdef.VhostPort:
			t.drops += d.Dev.RxDrops() + d.Dev.TxDrops()
			t.copies += d.Dev.HostCopies
		case *switchdef.PtnetPort:
			t.drops += d.Dev.Drops()
		}
	}
	if tb.fleet != nil {
		t.drops += tb.fleet.Drops()
	}
	for i, c := range tb.sutPolls {
		t.busy[i], t.idle[i] = c.Busy, c.Idle
	}
	if tb.controller != nil {
		t.updates = tb.controller.Updates()
	}
	t.evictions = tb.sw.Counts().EMCEvictions
	return t
}

// result is the Result of the window between two tallies, with the latency
// the endpoints' histograms collected since the window opened.
func (tb *testbed) result(start, end tally) Result {
	cfg, span := tb.cfg, end.at-start.at
	res := Result{Config: cfg, Display: tb.info.Display, Steps: tb.sched.Steps()}
	for i := range end.rx {
		d := end.rx[i].Sub(start.rx[i])
		dir := DirResult{
			RxPackets: d.Packets,
			RxBytes:   d.Bytes,
			Gbps:      units.WireGbpsBytes(d.Packets, d.Bytes, span),
			Mpps:      units.Mpps(d.Packets, span),
		}
		res.Dirs = append(res.Dirs, dir)
		res.Gbps += dir.Gbps
		res.Mpps += dir.Mpps
	}
	res.OfferedGbps = float64(cmp.Or(cfg.Rate, units.TenGigE)) / 1e9 * float64(len(res.Dirs))
	// Merge every direction's probe samples: bidirectional runs fill one
	// histogram per measurement endpoint, and dropping all but the first
	// would silently discard the reverse direction.
	var merged stats.Histogram
	for _, e := range tb.endpoints {
		merged.Merge(e.hist)
	}
	res.Latency = merged.Summarize()
	res.Drops = end.drops - start.drops
	res.HostCopies = end.copies - start.copies
	res.RuleUpdates = end.updates - start.updates
	res.EMCEvictions = end.evictions - start.evictions
	var busy, idle units.Cycles
	for i := range tb.sutPolls {
		busy += end.busy[i] - start.busy[i]
		idle += end.idle[i] - start.idle[i]
	}
	res.SUTBusyFrac = busyFrac(busy, idle)
	if cfg.SUTCores > 1 {
		res.EffectiveCores = len(tb.sutPolls)
		for i, c := range tb.sutPolls {
			res.Cores = append(res.Cores, CoreUtil{
				Name:     c.Name(),
				BusyFrac: busyFrac(end.busy[i]-start.busy[i], end.idle[i]-start.idle[i]),
			})
		}
	}
	return res
}

// busyFrac is busy's share of busy + idle cycles (0 when both are 0).
func busyFrac(busy, idle units.Cycles) float64 {
	if busy+idle > 0 {
		return float64(busy) / float64(busy+idle)
	}
	return 0
}
