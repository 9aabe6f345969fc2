package core

import (
	"testing"

	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

// goldenCell pins the digest of one config's full Result JSON (see
// resultDigest) over a 2 ms window after 1 ms of warmup.
type goldenCell struct {
	cfg    Config
	digest string
}

// TestPinnedGoldens runs every pinned golden table twice: with the
// switches' template-keyed classification memoization on, and with it
// force-disabled so every frame takes the per-frame reference path. Both
// must reproduce the pinned digests bit for bit — memoization is a host
// execution strategy, invisible to the simulation.
func TestPinnedGoldens(t *testing.T) {
	tables := []struct {
		name  string
		cells []goldenCell
		slow  bool // skipped under -short
		// check is the table's assertion beyond the digest.
		check func(t *testing.T, res Result)
	}{
		{name: "guest-path", cells: guestPathGoldens()},
		{name: "custom", cells: customGoldens(t)},
		{name: "multi-core", cells: multiCoreGoldens(), check: func(t *testing.T, res Result) {
			if res.EffectiveCores == 0 || len(res.Cores) != res.EffectiveCores {
				t.Errorf("%s: EffectiveCores=%d with %d per-core records",
					res.Config.Switch, res.EffectiveCores, len(res.Cores))
			}
		}},
		{name: "churn", cells: churnGoldens(), check: func(t *testing.T, res Result) {
			if res.RuleUpdates == 0 {
				t.Errorf("%s: no rule updates recorded in the measurement window", res.Config.Switch)
			}
		}},
		{name: "legacy-engine", cells: legacyEngineGoldens(), slow: true},
	}
	for _, memo := range []string{"on", "off"} {
		t.Run("memo="+memo, func(t *testing.T) {
			prev := switchdef.SetMemoDisabled(memo == "off")
			defer switchdef.SetMemoDisabled(prev)
			for _, tab := range tables {
				t.Run(tab.name, func(t *testing.T) {
					if tab.slow && testing.Short() {
						t.Skip("full grid is slow for -short")
					}
					for i, tc := range tab.cells {
						cfg := tc.cfg
						cfg.Duration = 2 * units.Millisecond
						cfg.Warmup = units.Millisecond
						res, err := Run(cfg)
						if err != nil {
							t.Fatalf("%+v: %v", tc.cfg, err)
						}
						if got := resultDigest(t, res); got != tc.digest {
							t.Errorf("cell %d (%s/%v): digest %s, want %s (simulated output diverged)",
								i, cfg.Switch, cfg.Scenario, got, tc.digest)
						}
						if tab.check != nil {
							tab.check(t, res)
						}
					}
				})
			}
		})
	}
}
