package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stats"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/ from the current output")

// stubRunner answers every spec at once with a Result that is a pure
// function of the spec's canonical Config, and with the per-switch limit
// errors exactly where switchdef.Info says the real testbed raises them.
// It makes run → render → CSV of every experiment a millisecond affair, so
// the goldens pin the experiment layer (grids, classification, grouping,
// formats) and nothing of the simulation below it.
type stubRunner struct{}

func (stubRunner) RunAll(specs []Config) []SpecOutcome {
	outs := make([]SpecOutcome, len(specs))
	for i, cfg := range specs {
		outs[i].Result, outs[i].Err = stubRun(cfg)
	}
	return outs
}

func stubRun(cfg Config) (Result, error) {
	c := cfg.Canonical()
	info, err := switchdef.Lookup(c.Switch)
	if err != nil {
		return Result{}, err
	}
	switch {
	case c.RuleUpdateRate > 0 && !info.RuntimeRules:
		return Result{}, fmt.Errorf("stub %s: %w", c.Switch, ErrNoRuntimeRules)
	case c.Scenario == Loopback && !c.Containers && info.MaxLoopbackVNFs > 0 && c.Chain > info.MaxLoopbackVNFs:
		return Result{}, fmt.Errorf("stub %s: %w", c.Switch, ErrChainTooLong)
	case c.SUTCores > 1 && info.IOMode == switchdef.InterruptMode:
		return Result{}, fmt.Errorf("stub %s: %w", c.Switch, ErrNoMultiCore)
	}
	key, err := json.Marshal(c)
	if err != nil {
		return Result{}, err
	}
	hash := fnv.New64a()
	hash.Write(key)
	h := hash.Sum64()
	// draw peels a value in [0, n) off the hash.
	draw := func(n uint64) float64 {
		v := h % n
		h = h/n ^ h<<17
		return float64(v)
	}
	res := Result{Config: c, Display: info.Display}
	res.Gbps = 0.5 + draw(195000)/10000
	res.Mpps = res.Gbps * 1.488
	dirs := 1
	if c.Bidir {
		dirs = 2
	}
	for d := 0; d < dirs; d++ {
		res.Dirs = append(res.Dirs, DirResult{Gbps: res.Gbps / float64(dirs), Mpps: res.Mpps / float64(dirs)})
	}
	if c.ProbeEvery > 0 {
		mean := 3 + draw(900000)/1000
		res.Latency = stats.Summary{N: 1000, MeanUs: mean, StdUs: mean / (2 + draw(7))}
	}
	if c.SUTCores > 1 {
		res.EffectiveCores = 1 + int(draw(uint64(c.SUTCores)))
	}
	if c.RuleUpdateRate > 0 {
		res.RuleUpdates = int64(draw(4000))
	}
	if c.Flows > 1 {
		res.EMCEvictions = int64(draw(90000))
	}
	return res, nil
}

// checkGolden holds got to testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden (rerun with -update and review the diff):\n%s", path, firstDiff(got, want))
	}
}

// firstDiff names the first line where two outputs part.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// TestExperimentGoldens drives every entry of the Experiments table
// through run → text (compare off and on) → CSV on the stub runner and
// holds the bytes to testdata/experiments.{txt,csv}, recorded through the
// per-family functions that preceded the table. The text ends with an
// == run == section: RenderResult, the `swbench run` line, over a
// unidirectional and a bidirectional p2p cell, a probed 2-VNF loopback
// (chain=, rtt:) and a 4-core RSS fleet (cores=). A new grid family adds
// its sections; regenerate with -update and review the diff.
func TestExperimentGoldens(t *testing.T) {
	var text, csvs bytes.Buffer
	for _, e := range Experiments {
		rep, err := e.Run(stubRunner{}, Quick)
		if err != nil {
			t.Fatalf("%s %s: %v", e.Kind, e.ID, err)
		}
		for _, compare := range []bool{false, true} {
			fmt.Fprintf(&text, "== %s %s compare=%v ==\n", e.Kind, e.ID, compare)
			rep.Render(&text, compare)
		}
		fmt.Fprintf(&csvs, "== %s %s ==\n", e.Kind, e.ID)
		if err := rep.CSV(&csvs); err != nil {
			// Writes to a bytes.Buffer cannot fail: the error is the
			// "no CSV form" one, and which entries lack one is pinned too.
			fmt.Fprintln(&csvs, "(no CSV form)")
		}
	}
	fmt.Fprintln(&text, "== run ==")
	for _, cfg := range []Config{
		{Switch: "vpp", Scenario: P2P},
		{Switch: "vpp", Scenario: P2P, Bidir: true},
		{Switch: "vpp", Scenario: Loopback, Chain: 2, ProbeEvery: 50 * units.Microsecond},
		{Switch: "ovs", Scenario: P2P, Bidir: true, Flows: 64, SUTCores: 4, Dispatch: DispatchRSS, RSSPolicy: RSSFlowHash},
	} {
		res, err := stubRun(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		RenderResult(&text, res)
	}
	checkGolden(t, "experiments.txt", text.Bytes())
	checkGolden(t, "experiments.csv", csvs.Bytes())
}
