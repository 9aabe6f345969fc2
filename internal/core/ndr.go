package core

import (
	"repro/internal/units"
)

// This file implements the RFC 2544 Non-Drop Rate binary search — the
// classical alternative to the paper's R⁺ methodology. The paper rejects
// it for software switches (footnote 3): "a binary search for the NDR is
// not suited for evaluating software solutions as it may converge to
// unreliable points due to even a single packet drop caused at the driver
// level". Both are provided so the critique can be demonstrated (see the
// fn3-ndr-below-rplus-unstable claim and examples/latencystudy).

// NDRResult is the outcome of a binary search for the non-drop rate.
type NDRResult struct {
	// PPS is the highest zero-loss rate found (packets/second).
	PPS float64
	// Trials records every probed rate and whether it passed.
	Trials []NDRTrial
}

// NDRTrial is one step of the search.
type NDRTrial struct {
	PPS    float64
	Lost   int64
	Passed bool
}

// NDROptions tunes the search.
type NDROptions struct {
	// Resolution stops the search when the bracket is this tight
	// (fraction of line rate; default 0.01).
	Resolution float64
	// MaxTrials bounds the number of measurement runs (default 12).
	MaxTrials int
	// LossTolerance allows this many lost frames per trial before
	// declaring failure (RFC 2544 uses 0).
	LossTolerance int64
}

// FindNDR runs the RFC 2544 binary search for cfg's scenario. Rates are
// probed between 1% and 100% of the frame-size line rate.
func FindNDR(cfg Config, opts NDROptions) (NDRResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return NDRResult{}, err
	}
	if opts.Resolution == 0 {
		opts.Resolution = 0.01
	}
	if opts.MaxTrials == 0 {
		opts.MaxTrials = 12
	}
	line := units.TenGigE.MaxPPS(cfg.FrameLen)
	lo, hi := 0.01*line, line
	var best float64
	var res NDRResult

	trial := func(pps float64) (bool, int64, error) {
		c := cfg
		c.Rate = units.RateForPPS(pps, cfg.FrameLen)
		c.ProbeEvery = 0
		r, err := Run(c)
		if err != nil {
			return false, 0, err
		}
		// Offered during the window vs delivered; the generator is CBR
		// so the expectation is exact up to one frame interval.
		offered := int64(pps * c.Duration.Seconds())
		lost := offered - r.Dirs[0].RxPackets
		if lost < 0 {
			lost = 0
		}
		return lost <= opts.LossTolerance, lost, nil
	}

	for i := 0; i < opts.MaxTrials && (hi-lo)/line > opts.Resolution; i++ {
		mid := (lo + hi) / 2
		ok, lost, err := trial(mid)
		if err != nil {
			return NDRResult{}, err
		}
		res.Trials = append(res.Trials, NDRTrial{PPS: mid, Lost: lost, Passed: ok})
		if ok {
			best = mid
			lo = mid
		} else {
			hi = mid
		}
	}
	res.PPS = best
	return res, nil
}
