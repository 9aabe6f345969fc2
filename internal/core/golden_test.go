package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/cpu"
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
//
// With elide false, idle-poll elision ends as the window opens: every SUT
// and guest poll core drops its Waiter, and none may then sleep through a
// poll of the window (a sleeping core wakes by the RunUntil deadline, so
// none sleeps as the window opens).
func runConservingCycles(t *testing.T, cfg Config, elide bool) (Result, error) {
	t.Helper()
	var (
		start  tally
		next0  []units.Time // each core's first poll after the window opens
		steps0 uint64
		slept0 []uint64 // each poll core's elided polls, elision off
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
			if !elide {
				for _, c := range pollCores(tb) {
					c.Waiter = nil
					slept0 = append(slept0, c.Elided())
				}
			}
			return
		}
		checkReturnLeg(t, tb, "window end")
		if !elide {
			for i, c := range pollCores(tb) {
				if n := c.Elided() - slept0[i]; n != 0 {
					t.Errorf("%s/%v core %s: slept through %d polls of the window with elision off", cfg.Switch, cfg.Scenario, c.Name(), n)
				}
			}
		}
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

// pollCores returns the testbed's SUT and guest poll cores.
func pollCores(tb *testbed) []*cpu.PollCore {
	return append(append([]*cpu.PollCore(nil), tb.sutPolls...), tb.guestCores...)
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
			t.Errorf("%s: sink port %s has no SUT port behind its wire", when, k.Port.Name())
			continue
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
		{name: "legacy-engine", cells: legacyEngineGoldens()},
		// A cell the testbed refuses (an Unsupported one among them)
		// already fails in run; this bounds what the rest forward.
		{name: "p2p-grid", cells: p2pGridGoldens(t), check: func(t *testing.T, res Result) {
			if res.Gbps <= 0 || res.Gbps > 20.2 {
				t.Errorf("%s p2p %dB bidir=%v: %.3f Gbps, want in (0, 20.2]",
					res.Config.Switch, res.Config.FrameLen, res.Config.Bidir, res.Gbps)
			}
		}},
	}
}

// run runs cell i of the table over its 2 ms window after 1 ms of warmup,
// elision on or off (see runConservingCycles), and requires the pinned
// digest and the table's check. It may run on any goroutine.
func (tab goldenTable) run(t *testing.T, i int, elide bool) {
	t.Helper()
	cfg := tab.cells[i].cfg
	cfg.Duration = 2 * units.Millisecond
	cfg.Warmup = units.Millisecond
	res, err := runConservingCycles(t, cfg, elide)
	if err != nil {
		t.Errorf("cell %d (%+v): %v", i, tab.cells[i].cfg, err)
		return
	}
	if got := resultDigest(t, res); got != tab.cells[i].digest {
		t.Errorf("cell %d (%s/%v): digest %s, want %s (simulated output diverged)",
			i, cfg.Switch, cfg.Scenario, got, tab.cells[i].digest)
	}
	if tab.check != nil {
		tab.check(t, res)
	}
}

// goldenAxes are the ways TestPinnedGoldens executes each table, every one
// of which must reproduce every pin:
//   - serial: each cell once, in table order;
//   - elision-off: the same with every poll core polling every iteration
//     from the window's opening: elision must not show in any digest (a
//     cell none of whose cores has a Waiter would repeat serial, and is
//     left out);
//   - reversed: after a 32 768-flow OvS churn cell, in reverse order, so
//     each cell leases pools, RX queue backings and template entries that
//     other cells grew, and nothing carries from one cell into the next;
//   - parallel: each cell twice, four goroutines taking the next run as
//     they finish one, so that under -race a pool or backing two live
//     cells shared is a race whatever GOMAXPROCS is.
var goldenAxes = []struct {
	name string
	run  func(t *testing.T, tab goldenTable)
}{
	{"serial", func(t *testing.T, tab goldenTable) {
		for i := range tab.cells {
			tab.run(t, i, true)
		}
	}},
	{"elision-off", func(t *testing.T, tab goldenTable) {
		for i := range tab.cells {
			if hinted(t, tab.cells[i].cfg) {
				tab.run(t, i, false)
			}
		}
	}},
	{"reversed", func(t *testing.T, tab goldenTable) {
		churn := churnCfg("ovs")
		churn.Flows = 32768
		if _, err := Run(churn); err != nil {
			t.Fatal(err)
		}
		for i := len(tab.cells) - 1; i >= 0; i-- {
			tab.run(t, i, true)
		}
	}},
	{"parallel", func(t *testing.T, tab goldenTable) {
		runs := make(chan int)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range runs {
					tab.run(t, i, true)
				}
			}()
		}
		for r := 0; r < 2*len(tab.cells); r++ {
			runs <- r % len(tab.cells)
		}
		close(runs)
		wg.Wait()
	}},
}

// hinted reports whether any poll core of cfg's testbed has a Waiter.
func hinted(t *testing.T, cfg Config) bool {
	t.Helper()
	tb, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.close()
	for _, c := range pollCores(tb) {
		if c.Waiter != nil {
			return true
		}
	}
	return false
}

// TestPinnedGoldens is the one whole-cell harness: every pinned golden
// table on every axis of goldenAxes, bit for bit, each cell also
// conserving its SUT cores' cycles (runConservingCycles) and every NIC
// sink's return leg its frames (checkReturnLeg).
func TestPinnedGoldens(t *testing.T) {
	for _, tab := range goldenTables(t) {
		t.Run(tab.name, func(t *testing.T) {
			for _, ax := range goldenAxes {
				t.Run(ax.name, func(t *testing.T) { ax.run(t, tab) })
			}
		})
	}
}

// p2pGridGoldens pins the 42 saturating cells of Fig. 4a, in FigureSpecs
// order, at the harness's 2 ms / 1 ms windows: all seven switches where
// the generator's wire runs and the SUTs' runs engage. Each frame size's
// seven digests are bess, fastclick, vpp, snabb, then ovs, vale, t4p4s.
func p2pGridGoldens(t *testing.T) []goldenCell {
	t.Helper()
	digests := []string{
		// unidirectional, 64 B
		"fbcb743f9f982b028280c7fa58b5d05d", "69b259a5ea9561926e52bb4692a8ab6b", "fc71da34ccde934cd9be7b23096ad4f5", "60265bf7e7690d1003b961004a71d213",
		"5137e0cfc23926e404f5f13bc53aafdd", "76b75c843900260a68021890a548556c", "1d0ef6cd89721d039a86d7fb71faa02b",
		// unidirectional, 256 B
		"e687b0febb68470788c47a297ffbd89f", "bcac42d0e9181dbe2cc6bb66e8496f3a", "1feee5de9ffa45615eea4eda0b6663f1", "e6c6224951df0f17b41a453079dcc81a",
		"5af6a6595d8210385f170b118b14421c", "e84ba15ca06f3de55fe8118e5623c15a", "b2dcabb15af0ba11511f95e73cb99022",
		// unidirectional, 1024 B
		"39fcaf7311eb33e8b075beb0b0413075", "db8ebf2004548ed2178646c903aa708c", "5d7e8d769c661fb254c8fcd47a836102", "df1d1aba0044eab11bc19cb9f1b1086c",
		"32b140834cced6d47fa4f41890227ffd", "e266db92235edca6396645e707b729ee", "cab3e3953ca5c0acfb0f49db09f85742",
		// bidirectional, 64 B
		"392824ed9a54d3fea7545bffd1edf1e2", "b0099e141686c4ad03698f273c480b70", "25de08fa79dea8c9fe11d64489569c0b", "e6e33e3eafe34e4205988387980bfd47",
		"5787096b3c02f13997b4e3aba51b87bd", "7e0510e6dbff59cb73025057d6a5579c", "6864969dcb43fd755d98c082a5997dbf",
		// bidirectional, 256 B
		"3b71d7e0b9e265e99f4bcac2eb8d2645", "cc3b63ebe3bc6b42b5a2ea5e2feae578", "f9e6350f495adfa673a4a3f43aaa336f", "70c4b52edd12ceb281957c28a3103edc",
		"37c5e912a06f4262049f81c215fe5c1a", "63e29ba93ff30349f1f8ccbf1bddd283", "e27a0b0e431564b59cf617f23ed4b754",
		// bidirectional, 1024 B
		"17a93db6c3d3b8fda003ba14eb67898b", "4427a8e2c94adab247ea79cf34d83fb9", "ddba874a6fe495556b65fbe56f4df822", "76312a5df70eea1e59f6d7c775a17a20",
		"9cf142e54e5c7f47b23fdfe704fc681f", "94e34e2f13184e4876ab2bc083e395f7", "2380092d465d916fb369e2aa8be4afa8",
	}
	cfgs, err := FigureSpecs("4a", RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != len(digests) {
		t.Fatalf("Fig. 4a has %d cells, %d pinned", len(cfgs), len(digests))
	}
	cells := make([]goldenCell, len(cfgs))
	for i, cfg := range cfgs {
		cells[i] = goldenCell{cfg, digests[i]}
	}
	return cells
}
