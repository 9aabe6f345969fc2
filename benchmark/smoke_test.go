package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics holds a run's metrics to their definitions: exactly the
// defined names, each once, with the defined unit and a finite value.
func checkMetrics(t *testing.T, got map[string]metric, defs []metricDef) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(got), len(defs))
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if seen[d.Name] {
			t.Errorf("%s is defined twice", d.Name)
		}
		seen[d.Name] = true
		if !metricName.MatchString(d.Name) {
			t.Errorf("%q is not a metric name", d.Name)
		}
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("%s is defined and was not reported", d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s reported in %q, defined in %q", d.Name, m.Unit, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %g is not finite", d.Name, m.Value)
		}
		if d.Unit == "count" && m.Value < 0 {
			t.Errorf("%s = %g is a negative count", d.Name, m.Value)
		}
	}
}

// TestSmoke runs every workload once timed and once traced, in process,
// with 1 ms windows. With -short it runs the smallest workload only: the
// quick suite's 494 cells take seconds per pass whatever the window.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if testing.Short() && w.name != "p2p_wire" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			opt := options{seed: 1, smoke: true, scratch: t.TempDir()}
			timed, err := runTimed(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, timed.Metrics, endToEnd)
			for _, d := range endToEnd {
				if timed.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %g: an end-to-end metric is never 0", d.Name, timed.Metrics[d.Name].Value)
				}
			}
			opt.trace = true
			traced, err := runTraced(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, traced.Metrics, perLayer)
			for _, o := range []*outcome{timed, traced} {
				if !o.Correct || o.Failed != 0 || o.Attempted < o.cells {
					t.Errorf("correct %v, %d of %d cells failed: %v", o.Correct, o.Failed, o.Attempted, o.notes)
				}
			}
			if timed.digest != traced.digest {
				t.Errorf("sim_digest does not repeat: timed %s, traced %s", timed.digest, traced.digest)
			}
			for _, g := range w.groups {
				if traced.Metrics["core.cell_wall_s."+g].Value <= 0 {
					t.Errorf("group %s of this workload has no cell time", g)
				}
			}
			if rate := traced.Metrics["campaign.warm_hit_rate"].Value; rate != 1 {
				t.Errorf("campaign.warm_hit_rate = %g, want 1", rate)
			}
		})
	}
}

// TestManifest holds BENCHMARK.json at the root of the repository to the
// definitions in this package.
func TestManifest(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk any
	if err := json.Unmarshal(blob, &onDisk); err != nil {
		t.Fatal(err)
	}
	mine, err := json.Marshal(manifest())
	if err != nil {
		t.Fatal(err)
	}
	var want any
	if err := json.Unmarshal(mine, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json differs from `benchmark -manifest`; regenerate it")
	}
	if len(blob) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes; the limit is 64 KiB", len(blob))
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics; 1 to 128 are allowed", n)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 || !metricName.MatchString(w.name) {
			t.Errorf("workload %q: name or why (%d characters) outside the limits", w.name, len(w.why))
		}
	}
}

// TestAAComparison checks the arithmetic of the A/A verdict.
func TestAAComparison(t *testing.T) {
	lowerIsBetter := metricDef{Name: "wall_s", Better: lower}
	higherIsBetter := metricDef{Name: "sim_pkts_per_host_s", Better: higher}
	if got := worse(lowerIsBetter, 10, 11); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("10 -> 11 s is %g worse, want 0.10", got)
	}
	if got := worse(higherIsBetter, 10, 11); math.Abs(got+0.10) > 1e-12 {
		t.Errorf("10 -> 11 pkts/s is %g worse, want -0.10", got)
	}
	set := func(wall float64, digest string, pkts float64) *fullReport {
		e2e := map[string]stat{}
		for _, d := range endToEnd {
			e2e[d.Name] = stat{Median: 1}
		}
		e2e["wall_s"] = stat{Median: wall}
		return &fullReport{Workloads: []workloadReport{{
			Name: "w", EndToEnd: e2e, SimDigest: digest,
			PerLayer: map[string]metric{"core.sim_pkts": {Value: pkts}},
		}}}
	}
	bound := endToEnd[0].Bound // wall_s
	if !compareAA(io.Discard, set(1, "d", 5), set(1+bound/2, "d", 5)) {
		t.Error("half the bound apart must agree")
	}
	far := 1 + 1.5*bound
	if compareAA(io.Discard, set(1, "d", 5), set(far, "d", 5)) || compareAA(io.Discard, set(far, "d", 5), set(1, "d", 5)) {
		t.Error("one and a half bounds apart must disagree, whichever set is slower")
	}
	if compareAA(io.Discard, set(1, "d", 5), set(1, "e", 5)) {
		t.Error("differing digests must disagree")
	}
	if compareAA(io.Discard, set(1, "d", 5), set(1, "d", 6)) {
		t.Error("differing exact counts must disagree")
	}
}
