package core

import (
	"math"
	"testing"

	"repro/internal/nic"
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
// twice, break it. The law and checkReturnLeg run in measure's edge hook,
// on the busy / idle tally the Result is computed from.
func runConservingCycles(t *testing.T, cfg Config) (Result, error) {
	t.Helper()
	var (
		start  tally
		next0  []units.Time // each core's first poll after the window opens
		steps0 uint64
	)
	nextPolls := func(tb *testbed) []units.Time {
		out := make([]units.Time, len(tb.sutPolls))
		for i, c := range tb.sutPolls {
			out[i] = c.Task().When()
		}
		return out
	}
	return measure(cfg, 1, func(tb *testbed, w int, cur tally) {
		if w == 0 {
			checkReturnLeg(t, tb, "warm-up")
			start, next0, steps0 = cur, nextPolls(tb), tb.sched.Steps()
			return
		}
		checkReturnLeg(t, tb, "window end")
		next1, steps := nextPolls(tb), tb.sched.Steps()-steps0
		freq := float64(tb.model.Freq)
		// Every poll is a scheduler step, so steps bounds the poll count.
		tol := float64(steps)*freq/2e12 + 1
		for i, c := range tb.sutPolls {
			got := float64(cur.busy[i] + cur.idle[i] - start.busy[i] - start.idle[i])
			want := float64(next1[i]-next0[i]) * freq / 1e12
			if math.Abs(got-want) > tol {
				t.Errorf("%s/%v core %s: %.0f busy+idle cycles over the window, want %.0f ± %.1f (Freq × time between its first polls after the window edges)",
					cfg.Switch, cfg.Scenario, c.Name(), got, want, tol)
			}
		}
	})
}

// checkReturnLeg checks that every NIC sink's leg conserves frames: all
// the SUT port has put on the wire toward the sink is drained or pending
// there, no pending frame was due by the deadline, the sink-bound port
// never found its ring full, and its RX queue holds no buffer (the sink
// consumes at arrival).
func checkReturnLeg(t *testing.T, tb *testbed, when string) {
	t.Helper()
	for _, k := range tb.sinks {
		var sut *nic.Port
		for _, p := range tb.ports {
			if p.gen == k.Port {
				sut = p.dev.(*switchdef.PhysPort).Port
			}
		}
		if sut == nil {
			t.Fatalf("%s: sink port %s has no SUT port behind its wire", when, k.Port.Name())
		}
		pending, due := k.Pending()
		if tx := sut.Stats.TxPackets; tx != k.Rx.Packets+pending {
			t.Errorf("%s: %s sent %d frames, sink on %s drained %d and holds %d pending",
				when, sut.Name(), tx, k.Port.Name(), k.Rx.Packets, pending)
		}
		if now := tb.sched.Now(); due <= now {
			t.Errorf("%s: sink on %s still holds a frame due at %v, by the deadline %v", when, k.Port.Name(), due, now)
		}
		if d := k.Port.Stats.RxDropsFull; d != 0 {
			t.Errorf("%s: sink port %s dropped %d frames to a full ring", when, k.Port.Name(), d)
		}
		if at := k.Port.NextRx(tb.sched.Now()); at != units.Never {
			t.Errorf("%s: sink port %s still queues a frame (next visible at %v)", when, k.Port.Name(), at)
		}
	}
}

// checkRuleUpdates fails a churn cell whose controller booked no rule
// update inside the measurement window.
func checkRuleUpdates(t *testing.T, res Result) {
	t.Helper()
	if res.RuleUpdates == 0 {
		t.Errorf("%s: no rule updates recorded in the measurement window", res.Config.Switch)
	}
}

// goldenTable is one table of pinned golden cells.
type goldenTable struct {
	name  string
	cells []goldenCell
	slow  bool // skipped under -short
	// check is the table's assertion beyond the digest.
	check func(t *testing.T, res Result)
}

// goldenTables returns every pinned golden table.
func goldenTables(t *testing.T) []goldenTable {
	return []goldenTable{
		{name: "guest-path", cells: guestPathGoldens()},
		{name: "custom", cells: customGoldens(t)},
		{name: "multi-core", cells: multiCoreGoldens(), check: func(t *testing.T, res Result) {
			if res.EffectiveCores == 0 || len(res.Cores) != res.EffectiveCores {
				t.Errorf("%s: EffectiveCores=%d with %d per-core records",
					res.Config.Switch, res.EffectiveCores, len(res.Cores))
			}
			if res.Config.RuleUpdateRate > 0 {
				checkRuleUpdates(t, res)
			}
		}},
		{name: "churn", cells: churnGoldens(), check: checkRuleUpdates},
		{name: "legacy-engine", cells: legacyEngineGoldens(), slow: true},
	}
}

// runGolden runs cell i of a golden table over its 2 ms window after 1 ms
// of warmup and requires the pinned digest.
func runGolden(t *testing.T, i int, tc goldenCell) Result {
	t.Helper()
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
	return res
}

// TestPinnedGoldens runs every pinned golden table and requires the
// pinned digests bit for bit; every cell must also conserve its SUT cores'
// cycles (runConservingCycles) and every NIC sink's return leg its frames
// (checkReturnLeg).
func TestPinnedGoldens(t *testing.T) {
	for _, tab := range goldenTables(t) {
		t.Run(tab.name, func(t *testing.T) {
			if tab.slow && testing.Short() {
				t.Skip("full grid is slow for -short")
			}
			for i, tc := range tab.cells {
				res := runGolden(t, i, tc)
				if tab.check != nil {
					tab.check(t, res)
				}
			}
		})
	}
}
