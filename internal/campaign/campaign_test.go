package campaign

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/units"
)

// quickCfg is a sub-millisecond measurement so pool tests stay fast.
func quickCfg(name string, scn core.ScenarioKind) core.Config {
	return core.Config{
		Switch: name, Scenario: scn,
		Duration: 500 * units.Microsecond,
		Warmup:   200 * units.Microsecond,
	}
}

// runWith is the in-process executor over run, which tests swap in to
// inject panics, stalls and counters.
func runWith(run func(core.Config) (core.Result, error)) func(context.Context, Spec, time.Duration) Outcome {
	return func(ctx context.Context, spec Spec, timeout time.Duration) Outcome {
		return ExecuteCell(ctx, run, spec, timeout)
	}
}

// smallCampaign mixes switches and scenarios across 8 cells.
func smallCampaign(name string) Campaign {
	var specs []Spec
	for _, sw := range []string{"vpp", "ovs", "bess", "vale"} {
		specs = append(specs, Spec{Cfg: quickCfg(sw, core.P2P)})
		specs = append(specs, Spec{Cfg: quickCfg(sw, core.V2V)})
	}
	return Campaign{Name: name, Specs: specs}
}

func TestCampaignRunsAllCells(t *testing.T) {
	o := New(context.Background(), Options{Workers: 4})
	rep, err := o.Run(smallCampaign("small"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("failed = %d: %v", rep.Failed, rep.Err())
	}
	if len(rep.Outcomes) != 8 {
		t.Fatalf("outcomes = %d", len(rep.Outcomes))
	}
	for i, out := range rep.Outcomes {
		if out.Err != nil {
			t.Fatalf("cell %d (%s): %v", i, out.Spec.ID, out.Err)
		}
		if out.Result.Gbps <= 0 {
			t.Fatalf("cell %d (%s): no traffic", i, out.Spec.ID)
		}
		if out.Spec.ID == "" {
			t.Fatalf("cell %d: empty auto ID", i)
		}
	}
}

// TestPanicIsolation is the acceptance scenario: one artificially
// panicking cell fails with a captured stack, every other cell succeeds,
// and the campaign reports a non-nil error (non-zero exit in the CLI).
func TestPanicIsolation(t *testing.T) {
	c := smallCampaign("panic")
	c.Specs = append(c.Specs, Spec{ID: "boom", Cfg: quickCfg("snabb", core.P2P)})
	o := New(context.Background(), Options{Workers: 4, Execute: runWith(func(cfg core.Config) (core.Result, error) {
		if cfg.Switch == "snabb" {
			panic("simulated diverging cell")
		}
		return core.Run(cfg)
	})})
	rep, err := o.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.Failed)
	}
	boom := rep.Outcomes[len(rep.Outcomes)-1]
	if !boom.Panicked || !errors.Is(boom.Err, ErrCellPanicked) {
		t.Fatalf("panicking cell outcome: %+v", boom)
	}
	if !strings.Contains(boom.Err.Error(), "simulated diverging cell") {
		t.Fatalf("panic message lost: %v", boom.Err)
	}
	if !strings.Contains(boom.Stack, "goroutine") {
		t.Fatalf("no stack captured: %q", boom.Stack)
	}
	for _, out := range rep.Outcomes[:len(rep.Outcomes)-1] {
		if out.Err != nil {
			t.Fatalf("healthy cell %s infected: %v", out.Spec.ID, out.Err)
		}
	}
	if rep.Err() == nil || !strings.Contains(rep.Err().Error(), "boom") {
		t.Fatalf("report error = %v", rep.Err())
	}
}

func TestCellTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	stall := func(cfg core.Config) (core.Result, error) {
		if cfg.Switch == "t4p4s" {
			<-release // stall until test teardown
			return core.Result{}, nil
		}
		return core.Run(cfg)
	}

	// The timeout must be generous enough that healthy cells always beat
	// it, even race-instrumented on a loaded single-core host: only the
	// artificially stuck cell may trip it.
	c := Campaign{Name: "timeout", Specs: []Spec{
		{Cfg: quickCfg("vpp", core.P2P)},
		{Cfg: quickCfg("ovs", core.P2P)},
		{ID: "stuck", Cfg: quickCfg("t4p4s", core.P2P)},
	}}
	o := New(context.Background(), Options{Workers: 2, Timeout: 3 * time.Second, Execute: runWith(stall)})
	rep, err := o.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	stuck := rep.Outcomes[len(rep.Outcomes)-1]
	if !errors.Is(stuck.Err, ErrCellTimeout) {
		t.Fatalf("stuck cell err = %v", stuck.Err)
	}
	if rep.Failed != 1 {
		t.Fatalf("failed = %d: %v", rep.Failed, rep.Err())
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	c := smallCampaign("cancel")
	o := New(ctx, Options{Workers: 1, Execute: runWith(func(cfg core.Config) (core.Result, error) {
		once.Do(cancel) // cancel as soon as the first cell runs
		return core.Run(cfg)
	})})
	rep, err := o.Run(c)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var canceled int
	for _, out := range rep.Outcomes {
		if errors.Is(out.Err, context.Canceled) {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("no cell recorded the cancellation")
	}
}

func TestEventsStream(t *testing.T) {
	var mu sync.Mutex
	counts := map[EventType]int{}
	var lastDone int
	o := New(context.Background(), Options{
		Workers: 2,
		Events: func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			counts[ev.Type]++
			if ev.Total != 8 {
				t.Errorf("event total = %d", ev.Total)
			}
			lastDone = ev.Done
		},
	})
	rep, err := o.Run(smallCampaign("events"))
	if err != nil || rep.Failed != 0 {
		t.Fatalf("run: %v / %v", err, rep.Err())
	}
	if counts[EventStarted] != 8 || counts[EventFinished] != 8 {
		t.Fatalf("event counts = %v", counts)
	}
	if lastDone != 8 {
		t.Fatalf("final done = %d", lastDone)
	}
}

// TestUnsupportedCellsAreNotFailures: a figure routed through the
// orchestrator holds cells its switch cannot run; every per-switch limit
// the figure prints as "-" finishes, none fails.
func TestUnsupportedCellsAreNotFailures(t *testing.T) {
	grid, err := core.FigureSpecs("churn", core.RunOpts{Duration: 200 * units.Microsecond, Warmup: 100 * units.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	var row []core.Config // the 10k-updates/s row of Snabb, which has no runtime rules
	for _, cfg := range grid {
		if cfg.Switch == "snabb" && cfg.ZipfSkew == 0 && cfg.RuleUpdateRate == 10000 {
			row = append(row, cfg)
		}
	}
	var mu sync.Mutex
	counts := map[EventType]int{}
	o := New(context.Background(), Options{Workers: 2, Events: func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		counts[ev.Type]++
	}})
	outs := o.RunAll(row)
	for i, out := range outs {
		if !errors.Is(out.Err, core.ErrNoRuntimeRules) {
			t.Errorf("cell %d: err = %v, want ErrNoRuntimeRules", i, out.Err)
		}
	}
	if len(row) != len(core.ChurnFlowCounts) || counts[EventFinished] != len(row) || counts[EventFailed] != 0 {
		t.Errorf("%d cells: events %v, want every cell finished and none failed", len(row), counts)
	}
}

func TestRunAllImplementsRunner(t *testing.T) {
	var _ core.Runner = (*Orchestrator)(nil)
	o := New(context.Background(), Options{Workers: 4})
	specs := []core.Config{quickCfg("vpp", core.P2P), quickCfg("ovs", core.P2P)}
	outs := o.RunAll(specs)
	if len(outs) != 2 {
		t.Fatalf("outs = %d", len(outs))
	}
	for i, out := range outs {
		if out.Err != nil || out.Result.Gbps <= 0 {
			t.Fatalf("spec %d: %+v", i, out)
		}
	}
}

// builtinRecord is every named campaign's cell count at core.Quick and the
// first 8 bytes of the SHA-256 of its newline-joined spec IDs, recorded
// through the hand-written per-campaign builders that preceded the
// experiment registry: deriving the campaigns from the registry must keep
// every name, every cell and the cell order.
var builtinRecord = map[string]struct {
	cells int
	ids   string
}{
	"churn":      {120, "69d4700d3f3d8b62"},
	"fig4a":      {42, "45e644fa097c4311"},
	"fig4b":      {42, "61aef62d94c87efa"},
	"fig4c":      {42, "11517e68cd1a5ee3"},
	"fig5":       {105, "89261ac45b86159f"},
	"fig6":       {105, "640129021a52074a"},
	"rplus":      {56, "7d639d3fd58b0049"},
	"scaling":    {110, "982afb89aac2f227"},
	"table4":     {7, "d964102c941321fd"},
	"throughput": {336, "099e7ce4f5049af0"},
}

func TestBuiltinCampaigns(t *testing.T) {
	if names := BuiltinNames(); len(names) != len(builtinRecord) {
		t.Errorf("campaigns %v, want the %d recorded ones", names, len(builtinRecord))
	}
	for _, name := range BuiltinNames() {
		c, err := Builtin(name, core.Quick)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(c.Specs) == 0 {
			t.Fatalf("%s: empty campaign", name)
		}
		seen := map[string]bool{}
		ids := make([]string, len(c.Specs))
		for i, s := range c.Specs {
			if s.ID == "" {
				t.Fatalf("%s: spec without ID", name)
			}
			if seen[s.ID] {
				t.Fatalf("%s: duplicate spec ID %s", name, s.ID)
			}
			seen[s.ID] = true
			ids[i] = s.ID
		}
		want, ok := builtinRecord[name]
		if !ok {
			t.Errorf("%s: campaign is not in the record", name)
			continue
		}
		sum := sha256.Sum256([]byte(strings.Join(ids, "\n")))
		if got := fmt.Sprintf("%x", sum[:8]); len(c.Specs) != want.cells || got != want.ids {
			t.Errorf("%s: %d cells, spec-ID hash %s; recorded %d, %s", name, len(c.Specs), got, want.cells, want.ids)
		}
	}
	if _, err := Builtin("nope", core.Quick); err == nil {
		t.Fatal("unknown campaign resolved")
	}
}

// TestRunnableOnceKeysOnCacheKey: runnableOnce drops a repeated cell, not
// a cell that only shares a repeated name — AutoID leaves Containers and
// Seed out, so each pair below is two cells under one name. (The builtin
// campaigns' cell counts are pinned in builtinRecord above.)
func TestRunnableOnceKeysOnCacheKey(t *testing.T) {
	base := core.Config{Switch: "vpp", Scenario: core.Loopback, Chain: 2}
	ct, seeded := base, base
	ct.Containers = true
	seeded.Seed = 7
	for _, tc := range []struct {
		name string
		cfgs []core.Config
		want int
	}{
		{"containers", []core.Config{base, ct}, 2},
		{"seed", []core.Config{base, seeded}, 2},
		{"repeat", []core.Config{base, ct, base, ct}, 2},
	} {
		specs := runnableOnce("x", tc.cfgs)
		if len(specs) != tc.want {
			t.Errorf("%s: %d cells, want %d", tc.name, len(specs), tc.want)
		}
		if specs[0].ID != "x/"+AutoID(base) {
			t.Errorf("%s: first cell named %q", tc.name, specs[0].ID)
		}
	}
}
