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
	tb, err := build(cfg)
	if err != nil {
		return Result{}, err
	}
	cfg = tb.cfg // defaults applied

	if cfg.CapturePath != "" {
		stop, err := tb.attachCapture(cfg.CapturePath)
		if err != nil {
			return Result{}, err
		}
		defer stop()
	}

	// Warmup: caches fill, MAC tables learn, JIT traces compile, queues
	// reach steady state.
	tb.sched.RunUntil(cfg.Warmup)

	// Snapshot counters and reset latency histograms at window start.
	snaps := make([]stats.Counter, len(tb.dirRx))
	for i, fn := range tb.dirRx {
		snaps[i] = fn()
	}
	for _, h := range tb.hists {
		h.Reset()
	}
	// Loss and copy counters accumulate from time zero, so window totals
	// must be deltas — otherwise warmup-phase drops (queues filling, MAC
	// tables learning) pollute the measurement the way warmup frames
	// would pollute RxPackets.
	drop0 := make([]int64, len(tb.dropFns))
	for i, fn := range tb.dropFns {
		drop0[i] = fn()
	}
	copy0 := make([]int64, len(tb.copyFns))
	for i, fn := range tb.copyFns {
		copy0[i] = fn()
	}
	busy0 := make([]units.Cycles, len(tb.sutPolls))
	idle0 := make([]units.Cycles, len(tb.sutPolls))
	for i, c := range tb.sutPolls {
		busy0[i], idle0[i] = c.Busy, c.Idle
	}
	var updates0, evict0 int64
	if tb.controller != nil {
		updates0 = tb.controller.Updates()
	}
	if ec, ok := tb.sw.(emcEvictioner); ok {
		evict0 = ec.EMCEvictionCount()
	}

	tb.sched.RunUntil(cfg.Warmup + cfg.Duration)

	if tb.controller != nil && tb.controller.Err != nil {
		return Result{}, tb.controller.Err
	}

	// Collect.
	res := Result{Config: cfg, Display: tb.info.Display, Steps: tb.sched.Steps()}
	for i, fn := range tb.dirRx {
		d := fn().Sub(snaps[i])
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
	for i, fn := range tb.dropFns {
		res.Drops += fn() - drop0[i]
	}
	for i, fn := range tb.copyFns {
		res.HostCopies += fn() - copy0[i]
	}
	if tb.controller != nil {
		res.RuleUpdates = tb.controller.Updates() - updates0
	}
	if ec, ok := tb.sw.(emcEvictioner); ok {
		res.EMCEvictions = ec.EMCEvictionCount() - evict0
	}
	var busy, idle units.Cycles
	for i, c := range tb.sutPolls {
		busy += c.Busy - busy0[i]
		idle += c.Idle - idle0[i]
	}
	if busy+idle > 0 {
		res.SUTBusyFrac = float64(busy) / float64(busy+idle)
	}
	if cfg.SUTCores > 1 {
		res.EffectiveCores = len(tb.sutPolls)
		for i, c := range tb.sutPolls {
			b, id := c.Busy-busy0[i], c.Idle-idle0[i]
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
