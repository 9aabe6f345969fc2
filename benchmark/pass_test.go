package main

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/units"
)

func TestPaperErrPct(t *testing.T) {
	// Errors of 10 %, 50 % and 20 %: the median is 20 %.
	refs := []refPoint{{sim: 11, paper: 10}, {sim: 2, paper: 4}, {sim: 96, paper: 80}}
	if got := paperErrPct(refs); got < 19.999 || got > 20.001 {
		t.Errorf("paperErrPct = %g, want 20", got)
	}
	if got := paperErrPct(nil); got != 0 {
		t.Errorf("no reference points: %g, want 0", got)
	}
}

func sampleCell() cell {
	return cell{
		cfg: core.Config{Switch: "vpp", Scenario: core.P2P, FrameLen: 64},
		res: core.Result{
			Config: core.Config{Switch: "vpp", FrameLen: 64, Duration: units.Millisecond},
			Dirs:   []core.DirResult{{RxPackets: 1000, RxBytes: 64000, Gbps: 0.672, Mpps: 1}},
			Gbps:   0.672, Mpps: 1, Drops: 7, HostCopies: 3, Steps: 12345,
			Latency: stats.Summary{N: 10, MeanUs: 4.5, P99Us: 9},
		},
	}
}

func digestOf(c cell) string {
	p := pass{cells: []cell{c}}
	return p.digest()
}

// The digest covers what the simulation delivered, not how the engine got
// there nor what is derived from it.
func TestDigestProjection(t *testing.T) {
	base := digestOf(sampleCell())
	same := map[string]func(*cell){
		"Steps":         func(c *cell) { c.res.Steps++ },
		"SimPartitions": func(c *cell) { c.res.SimPartitions = 2 },
		"Gbps":          func(c *cell) { c.res.Gbps *= 2; c.res.Dirs[0].Gbps *= 2 },
		"SUTBusyFrac":   func(c *cell) { c.res.SUTBusyFrac = 0.5 },
		"Display":       func(c *cell) { c.res.Display = "VPP" },
		"Latency.StdUs": func(c *cell) { c.res.Latency.StdUs = 1 },
		"host time":     func(c *cell) { c.wall, c.cpu = 5, 6 },
	}
	for name, edit := range same {
		c := sampleCell()
		edit(&c)
		if digestOf(c) != base {
			t.Errorf("%s moved the digest", name)
		}
	}
	differ := map[string]func(*cell){
		"RxPackets":    func(c *cell) { c.res.Dirs[0].RxPackets++ },
		"RxBytes":      func(c *cell) { c.res.Dirs[0].RxBytes++ },
		"a direction":  func(c *cell) { c.res.Dirs = append(c.res.Dirs, core.DirResult{}) },
		"Drops":        func(c *cell) { c.res.Drops++ },
		"HostCopies":   func(c *cell) { c.res.HostCopies++ },
		"RuleUpdates":  func(c *cell) { c.res.RuleUpdates++ },
		"EMCEvictions": func(c *cell) { c.res.EMCEvictions++ },
		"Latency.N":    func(c *cell) { c.res.Latency.N++ },
		"Latency.Mean": func(c *cell) { c.res.Latency.MeanUs += 0.001 },
		"Latency.P99":  func(c *cell) { c.res.Latency.P99Us += 0.001 },
		"an error":     func(c *cell) { c.err = core.ErrChainTooLong },
	}
	for name, edit := range differ {
		c := sampleCell()
		edit(&c)
		if digestOf(c) == base {
			t.Errorf("%s did not move the digest", name)
		}
	}
}

func TestCheckCell(t *testing.T) {
	if err := checkCell(sampleCell()); err != nil {
		t.Errorf("a sound cell failed: %v", err)
	}
	c := sampleCell()
	c.err = fmt.Errorf("wrapped: %w", core.ErrChainTooLong)
	if err := checkCell(c); err != nil {
		t.Errorf("an unsupported chain length is not a failure: %v", err)
	}
	bad := map[string]func(*cell){
		"hard error":    func(c *cell) { c.err = errors.New("boom") },
		"no traffic":    func(c *cell) { c.res.Mpps = 0 },
		"wrong size":    func(c *cell) { c.res.Dirs[0].RxBytes-- },
		"over the line": func(c *cell) { c.res.Dirs[0].RxPackets = 30000; c.res.Dirs[0].RxBytes = 64 * 30000 },
		"lost probes":   func(c *cell) { c.cfg.ProbeEvery = units.Microsecond; c.res.Latency.N = 0 },
	}
	for name, edit := range bad {
		c := sampleCell()
		edit(&c)
		if checkCell(c) == nil {
			t.Errorf("%s passed the check", name)
		}
	}
}
