package core

import (
	"math"
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

// runConservingCycles is Run with the cycle conservation law checked on
// every SUT poll core: busy + idle cycles over the window equal Freq ×
// window. The two polls straddling the window edges are taken exactly, not
// as a tolerance: the window's cycles are those of the polls starting
// from the first poll after its start (t0) up to the first poll after its
// end (t1), and each poll advances the clock by its cycles' duration, so
// they must total Freq × (t1 − t0) up to Freq.Duration's half-picosecond
// rounding per poll. Cycles that elided polls failed to book, or booked
// twice, break it.
func runConservingCycles(t *testing.T, cfg Config) (Result, error) {
	t.Helper()
	m, err := warmUp(cfg)
	if err != nil {
		return Result{}, err
	}
	tb := m.tb
	type mark struct {
		cycles units.Cycles
		next   units.Time
	}
	snap := func() []mark {
		out := make([]mark, len(tb.sutPolls))
		for i, c := range tb.sutPolls {
			out[i] = mark{c.Busy + c.Idle, c.Task().When()}
		}
		return out
	}
	start, steps0 := snap(), tb.sched.Steps()
	tb.sched.RunUntil(tb.cfg.Warmup + tb.cfg.Duration)
	end, steps := snap(), tb.sched.Steps()-steps0
	freq := float64(tb.model.Freq)
	// Every poll is a scheduler step, so steps bounds the poll count.
	tol := float64(steps)*freq/2e12 + 1
	for i, c := range tb.sutPolls {
		got := float64(end[i].cycles - start[i].cycles)
		want := float64(end[i].next-start[i].next) * freq / 1e12
		if math.Abs(got-want) > tol {
			t.Errorf("%s/%v core %s: %.0f busy+idle cycles over the window, want %.0f ± %.1f (Freq × time between its first polls after the window edges)",
				cfg.Switch, cfg.Scenario, c.Name(), got, want, tol)
		}
	}
	return m.collect()
}

// TestPinnedGoldens runs every pinned golden table twice: with the
// switches' template-keyed classification memoization on, and with it
// force-disabled so every frame takes the per-frame reference path. Both
// must reproduce the pinned digests bit for bit — memoization is a host
// execution strategy, invisible to the simulation — and every cell must
// conserve its SUT cores' cycles (runConservingCycles).
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
						res, err := runConservingCycles(t, cfg)
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
