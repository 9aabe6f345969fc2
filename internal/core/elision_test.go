package core

import (
	"testing"

	"repro/internal/units"
)

// TestIdlePollElisionEngages fails if idle-poll elision silently stops: on
// one low-load cell per hinted owner, every poll core with a Waiter must
// have slept through some of its empty polls. The five 0.10·R⁺ loopback-2
// cells cover VPP, OvS, t4p4s, FastClick and BESS plus the l2fwd guests,
// VALE loopback-1 the guest ValeFwd, and the v2v latency topology the
// guest Monitor. Elision is invisible in every digest by design, so this
// is the only test that notices it is gone.
func TestIdlePollElisionEngages(t *testing.T) {
	short := func(cfg Config) Config {
		cfg.Warmup, cfg.Duration = 500*units.Microsecond, 2*units.Millisecond
		return cfg
	}
	var cells []Config
	for _, sw := range []string{"vpp", "ovs", "t4p4s", "fastclick", "bess"} {
		cfg := short(Config{Switch: sw, Scenario: Loopback, Chain: 2, FrameLen: 64})
		rp, err := EstimateRPlus(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, LatencyConfig(cfg, rp, 0.10))
	}
	cells = append(cells,
		short(Config{Switch: "vale", Scenario: Loopback, Chain: 1, FrameLen: 64, Rate: units.Gbps}),
		short(Config{Switch: "vpp", Scenario: V2V, LatencyTopology: true, FrameLen: 64,
			Rate: units.RateForPPS(1e6, 64), ProbeEvery: DefaultProbeEvery}))

	for _, cfg := range cells {
		var tb *testbed
		res, err := measure(cfg, 1, func(b *testbed, _ int, _ tally) { tb = b })
		if err != nil {
			t.Fatal(err)
		}
		hinted := 0
		for _, c := range pollCores(tb) {
			if c.Waiter == nil {
				continue
			}
			hinted++
			if c.Elided() == 0 {
				t.Errorf("%s/%v: core %s has a Waiter but never slept through an empty poll", cfg.Switch, cfg.Scenario, c.Name())
			}
		}
		if hinted == 0 {
			t.Errorf("%s/%v: no poll core carries a Waiter", cfg.Switch, cfg.Scenario)
		}
		if cfg.Switch == "vpp" && cfg.Scenario == Loopback {
			dispatched := res.Steps - tb.sched.Elided()
			if float64(dispatched) >= 0.4*float64(res.Steps) {
				t.Errorf("vpp loopback-2 at 0.10·R⁺ dispatched %d of %d logical steps, want < 40%%", dispatched, res.Steps)
			}
		}
	}
}
