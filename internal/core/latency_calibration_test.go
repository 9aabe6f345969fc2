package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/units"
)

// Each latency calibration test holds one row of the paper's latency tables
// to a pinned ceiling on the median of |sim − paper| / paper over its cells.
// The ceilings are a ratchet: lower one when a model change lowers the
// error, never raise it.
const (
	p2pLatencyCeiling      = 0.31 // Table 3 p2p row, 0.301 when pinned
	loopbackLatencyCeiling = 0.22 // Table 3 1-VNF loopback row, 0.214 when pinned
	v2vLatencyCeiling      = 0.22 // Table 4, 0.213 when pinned
)

// latencyWindow is the measurement window of every latency calibration run.
func latencyWindow(c Config) Config {
	c.Duration, c.Warmup = 10*units.Millisecond, 3*units.Millisecond
	return c
}

// relErrs appends |sim[i] − paper[i]| / paper[i] for each cell to errs.
func relErrs(errs, sim, paper []float64) []float64 {
	for i := range sim {
		errs = append(errs, math.Abs(sim[i]-paper[i])/paper[i])
	}
	return errs
}

// checkMedianErr fails t when the median of errs is over ceiling.
func checkMedianErr(t *testing.T, what string, errs []float64, ceiling float64) {
	t.Helper()
	sort.Float64s(errs)
	med := (errs[(len(errs)-1)/2] + errs[len(errs)/2]) / 2
	t.Logf("%s: median relative error %.3f over %d cells (ceiling %.2f)", what, med, len(errs), ceiling)
	if med > ceiling {
		t.Errorf("%s: median relative error %.3f over ceiling %.2f", what, med, ceiling)
	}
}

// table3Row runs one Table 3 row (RTT at Table3Loads) for every switch,
// calls check on each switch's simulated and paper RTTs, and returns the
// row's relative errors.
func table3Row(t *testing.T, label string, cfg Config, check func(name string, sim, paper []float64)) []float64 {
	t.Helper()
	var errs []float64
	for _, name := range allSwitches {
		c := latencyWindow(cfg)
		c.Switch = name
		pts, err := LatencyProfile(c, Table3Loads)
		if err != nil {
			t.Fatalf("%s %s: %v", name, label, err)
		}
		var sim []float64
		for _, p := range pts {
			sim = append(sim, p.Summary.MeanUs)
		}
		ref := PaperTable3[name][label]
		paper := ref[:]
		t.Logf("Table 3 %-15s %-9s sim %6.1f  paper %6.1f µs", label, name, sim, paper)
		if check != nil {
			check(name, sim, paper)
		}
		errs = relErrs(errs, sim, paper)
	}
	return errs
}

// TestCalibrationLatencyP2P holds the model's p2p row of Table 3 to the
// paper.
func TestCalibrationLatencyP2P(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	errs := table3Row(t, "p2p", Config{Scenario: P2P}, nil)
	checkMedianErr(t, "Table 3 p2p", errs, p2pLatencyCeiling)
}

// TestCalibrationLatencyLoopback holds the model's 1-VNF loopback row of
// Table 3 to the paper, and requires RTT to fall from 0.10 to 0.50·R⁺
// wherever the paper's does (pipelines that idle at low load wait longer for
// a batch to fill).
func TestCalibrationLatencyLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	label := "1-VNF loopback"
	errs := table3Row(t, label, Config{Scenario: Loopback, Chain: 1}, func(name string, sim, paper []float64) {
		if paper[0] > paper[1] && sim[0] <= sim[1] {
			t.Errorf("%s %s: RTT %.1f µs at 0.10·R⁺ is not above %.1f µs at 0.50·R⁺, as the paper's is",
				name, label, sim[0], sim[1])
		}
	})
	checkMedianErr(t, "Table 3 "+label, errs, loopbackLatencyCeiling)
}

// TestCalibrationLatencyV2V holds the model's Table 4 (v2v RTT at 1 Mpps) to
// the paper.
func TestCalibrationLatencyV2V(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var errs []float64
	for _, name := range allSwitches {
		cfg := latencyWindow(Config{
			Switch: name, Scenario: V2V, LatencyTopology: true,
			Rate: units.RateForPPS(1e6, 64), ProbeEvery: DefaultProbeEvery,
		})
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s v2v: %v", name, err)
		}
		sim, paper := []float64{res.Latency.MeanUs}, []float64{PaperTable4[name]}
		t.Logf("Table 4 v2v %-9s sim %6.1f  paper %6.1f µs", name, sim[0], paper[0])
		errs = relErrs(errs, sim, paper)
	}
	checkMedianErr(t, "Table 4", errs, v2vLatencyCeiling)
}
