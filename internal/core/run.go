package core

import (
	"repro/internal/stats"
	"repro/internal/units"
)

// emcEvictioner is the optional stats surface a switch (or fleet facade)
// exposes when its data plane maintains an exact-match cache.
type emcEvictioner interface {
	EMCEvictionCount() int64
}

// Run executes one measurement: assemble the testbed, run the warmup,
// then measure over the configured window.
func Run(cfg Config) (Result, error) {
	m, err := warmUp(cfg)
	if err != nil {
		return Result{}, err
	}
	m.tb.sched.RunUntil(m.tb.cfg.Warmup + m.tb.cfg.Duration)
	return m.collect()
}

// measurement is a testbed past its warmup, with every counter the Result
// reports as it stood at the start of the measurement window. The counters
// accumulate from time zero, so window totals must be deltas — otherwise
// warmup-phase drops (queues filling, MAC tables learning) pollute the
// measurement the way warmup frames would pollute RxPackets.
type measurement struct {
	tb          *testbed
	stopCapture func() // nil without Config.CapturePath

	rx                 []stats.Counter
	drops, copies      int64
	busy, idle         []units.Cycles
	updates, evictions int64
}

// warmUp assembles cfg's testbed, runs the warmup — caches fill, MAC
// tables learn, JIT traces compile, queues reach steady state — and opens
// the measurement window: counters snapshotted, latency histograms reset.
// The caller advances the scheduler over the window, then calls collect.
func warmUp(cfg Config) (measurement, error) {
	tb, err := build(cfg)
	if err != nil {
		return measurement{}, err
	}
	m := measurement{tb: tb}
	if tb.cfg.CapturePath != "" {
		if m.stopCapture, err = tb.attachCapture(tb.cfg.CapturePath); err != nil {
			return measurement{}, err
		}
	}

	tb.sched.RunUntil(tb.cfg.Warmup)

	m.rx = tb.rxCounters()
	for _, h := range tb.hists {
		h.Reset()
	}
	m.drops, m.copies = sum(tb.dropFns), sum(tb.copyFns)
	m.busy = make([]units.Cycles, len(tb.sutPolls))
	m.idle = make([]units.Cycles, len(tb.sutPolls))
	for i, c := range tb.sutPolls {
		m.busy[i], m.idle[i] = c.Busy, c.Idle
	}
	if tb.controller != nil {
		m.updates = tb.controller.Updates()
	}
	if ec, ok := tb.sw.(emcEvictioner); ok {
		m.evictions = ec.EMCEvictionCount()
	}
	return m, nil
}

// rxCounters reads every direction's delivered-traffic counter.
func (tb *testbed) rxCounters() []stats.Counter {
	out := make([]stats.Counter, len(tb.dirRx))
	for i, fn := range tb.dirRx {
		out[i] = fn()
	}
	return out
}

// sum totals a set of the testbed's counter readers (dropFns, copyFns).
func sum(fns []func() int64) (n int64) {
	for _, fn := range fns {
		n += fn()
	}
	return n
}

// collect closes the measurement window at the scheduler's current time:
// everything since warmUp, as a Result over cfg.Duration.
func (m measurement) collect() (Result, error) {
	tb, cfg := m.tb, m.tb.cfg
	if m.stopCapture != nil {
		defer m.stopCapture()
	}
	if tb.controller != nil && tb.controller.Err != nil {
		return Result{}, tb.controller.Err
	}

	res := Result{Config: cfg, Display: tb.info.Display, Steps: tb.sched.Steps()}
	for i, fn := range tb.dirRx {
		d := fn().Sub(m.rx[i])
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
	offered := cfg.Rate
	if offered == 0 {
		offered = units.TenGigE
	}
	res.OfferedGbps = float64(offered) / 1e9 * float64(len(res.Dirs))
	// Merge every direction's probe samples: bidirectional runs fill one
	// histogram per measurement endpoint, and dropping all but the first
	// would silently discard the reverse direction.
	var merged stats.Histogram
	for _, h := range tb.hists {
		merged.Merge(h)
	}
	res.Latency = merged.Summarize()
	res.Drops = sum(tb.dropFns) - m.drops
	res.HostCopies = sum(tb.copyFns) - m.copies
	if tb.controller != nil {
		res.RuleUpdates = tb.controller.Updates() - m.updates
	}
	if ec, ok := tb.sw.(emcEvictioner); ok {
		res.EMCEvictions = ec.EMCEvictionCount() - m.evictions
	}
	var busy, idle units.Cycles
	for i, c := range tb.sutPolls {
		busy += c.Busy - m.busy[i]
		idle += c.Idle - m.idle[i]
	}
	if busy+idle > 0 {
		res.SUTBusyFrac = float64(busy) / float64(busy+idle)
	}
	if cfg.SUTCores > 1 {
		res.EffectiveCores = len(tb.sutPolls)
		for i, c := range tb.sutPolls {
			b, id := c.Busy-m.busy[i], c.Idle-m.idle[i]
			cu := CoreUtil{Name: c.Name()}
			if b+id > 0 {
				cu.BusyFrac = float64(b) / float64(b+id)
			}
			res.Cores = append(res.Cores, cu)
		}
	}
	// The measurement is collected; release the buffer high-water mark
	// before the caller (often a many-cell campaign) moves on.
	tb.releasePools()
	return res, nil
}
