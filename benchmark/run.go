package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/topo"
)

// options are the settings of one run of one workload.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// smoke shrinks every window to 1 ms and every loop to its minimum:
	// it checks that the benchmark works, and measures nothing.
	smoke bool
	// scratch is where caches and temporary files go; it lies inside the
	// checkout and is removed when the run ends.
	scratch string
	// initTime is how long the process took from start to main.
	initTime time.Duration
	// traceOut and profileDir, on a traced run, receive the spans as
	// Chrome trace-event JSON and a CPU profile of the traced passes.
	traceOut, profileDir string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run reports: the contract's last line plus the
// details the human-readable report and the A/A comparison need.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	digest  string
	passes  int
	cells   int
	refs    int
	notes   []string          // why correct is false, and other findings
	samples map[string]string // per-metric sample counts, for the report
}

func (w *workload) runOpts(opt options) core.RunOpts {
	o := core.RunOpts{Duration: w.window, Warmup: w.warmup, Seed: opt.seed}
	if opt.smoke {
		o.Duration, o.Warmup = ms, ms
	}
	return o
}

// firstSetups is how many times a timed run sets up before its first
// pass. It sets up once more before every further pass, so that the
// set-ups are spread over the run like the passes are and a slow spell of
// the host cannot cover them all; setup_s is the median.
const firstSetups = 5

// setupRunner is the runner of the set-up phase. It validates and plans
// every cell the workload would issue, and runs the first cell of each
// (switch, scenario, chain) with a 1 ms window so that whatever the
// simulator sets up lazily is out of the timed passes. Later cells of the
// same kind get the first one's outcome back: a two-wave workload only
// needs a plausible R+ to derive its second wave from.
type setupRunner struct {
	seen map[setupKind]core.SpecOutcome
}

type setupKind struct {
	sw      string
	scn     core.ScenarioKind
	chain   int
	latency bool
}

func (s *setupRunner) RunAll(specs []core.Config) []core.SpecOutcome {
	outs := make([]core.SpecOutcome, len(specs))
	for i, cfg := range specs {
		outs[i] = s.one(cfg)
	}
	return outs
}

func (s *setupRunner) one(cfg core.Config) core.SpecOutcome {
	if err := cfg.Validate(); err != nil {
		return core.SpecOutcome{Err: err}
	}
	g, err := cfg.Graph()
	if err == nil {
		_, err = topo.NewPlan(g)
	}
	if err != nil {
		return core.SpecOutcome{Err: err}
	}
	k := setupKind{cfg.Switch, cfg.Scenario, cfg.Chain, cfg.LatencyTopology}
	out, ok := s.seen[k]
	if !ok {
		cfg.Duration, cfg.Warmup = ms, ms
		out.Result, out.Err = core.Run(cfg)
		s.seen[k] = out
	}
	return out
}

// setUp is one set-up: expand the grid, validate and plan every cell,
// open the cache, warm every kind of cell. It returns how long that took.
func setUp(w *workload, opt options) (time.Duration, error) {
	start := time.Now()
	if w.cached {
		_, cleanup, err := newCache(opt, "setup-cache")
		if err != nil {
			return 0, err
		}
		defer cleanup()
	}
	r := newCellRunner(&setupRunner{seen: map[setupKind]core.SpecOutcome{}}, nil, -1, 0)
	_, err := w.run(r, w.runOpts(opt))
	if err == nil {
		for _, c := range r.cells {
			if c.err != nil && !expectedErr(c.err) {
				err = c.err
				break
			}
		}
	}
	return time.Since(start), err
}

// newCache opens an empty on-disk result cache under the scratch
// directory and returns it with the function that removes it.
func newCache(opt options, name string) (*campaign.Cache, func(), error) {
	dir := filepath.Join(opt.scratch, name)
	cache, err := campaign.OpenCache(dir)
	return cache, func() { os.RemoveAll(dir) }, err
}

// orchestrator is the campaign runner over cache with a pool of workers.
func orchestrator(cache *campaign.Cache, workers int, events func(campaign.Event)) core.Runner {
	return campaign.New(context.Background(), campaign.Options{Workers: workers, Cache: cache, Events: events})
}

// passRunner returns the runner a measured pass of w executes on, and the
// function that removes what it left on disk: the serial runner, or for
// a cached workload the orchestrator over a fresh, cold cache.
func passRunner(w *workload, opt options, name string) (core.Runner, func(), error) {
	if !w.cached {
		return core.SerialRunner{}, func() {}, nil
	}
	cache, cleanup, err := newCache(opt, name)
	if err != nil {
		return nil, nil, err
	}
	return orchestrator(cache, 1, nil), cleanup, nil
}

// measured accumulates the passes of one run.
type measured struct {
	passes []pass
	digest string // of the first pass: the reference of the output check
	notes  []string
	failed int
	cells  int
}

// add records a pass and checks it: every cell on its own, and the
// pass's digest against the first pass's. A mismatch fails every cell of
// the pass.
func (m *measured) add(p pass) {
	failed := 0
	for _, c := range p.cells {
		if err := checkCell(c); err != nil {
			failed++
			if len(m.notes) < 8 {
				m.notes = append(m.notes, "cell failed: "+err.Error())
			}
		}
	}
	if p.err != nil {
		m.notes = append(m.notes, "suite error: "+p.err.Error())
		failed = len(p.cells)
	}
	switch got := p.digest(); {
	case len(m.passes) == 0:
		m.digest = got
	case got != m.digest:
		m.notes = append(m.notes, fmt.Sprintf("sim_digest %.16s differs from the first pass's %.16s", got, m.digest))
		failed = len(p.cells)
	}
	m.cells += len(p.cells)
	m.failed += failed
	m.passes = append(m.passes, p)
}

// first is the pass whose results stand for the run's: every later pass
// was checked to agree with it.
func (m *measured) first() *pass { return &m.passes[0] }

// columns returns the per-pass rows of per-cell wall and CPU seconds.
func columns(passes []pass) (wall, cpu [][]float64) {
	for _, p := range passes {
		w := make([]float64, len(p.cells))
		c := make([]float64, len(p.cells))
		for i, cl := range p.cells {
			w[i], c[i] = cl.wall.Seconds(), cl.cpu.Seconds()
		}
		wall, cpu = append(wall, w), append(cpu, c)
	}
	return wall, cpu
}

// timedPasses runs passes of w for about seconds — at least two, for the
// output check needs a digest to repeat, and a multiple of two, for a
// traced run compares as many plain passes as traced ones. Before pass n
// it calls before, which says whether the pass records spans.
func timedPasses(w *workload, opt options, seconds float64, before func(n int) (*tracer, int, error)) (*measured, error) {
	m := &measured{}
	o := w.runOpts(opt)
	start := time.Now()
	var walls []float64
	for n := 0; ; n++ {
		// Stop at the pair of passes that ends nearest to the requested time.
		if n >= 2 && n%2 == 0 && time.Since(start).Seconds()+median(walls) > seconds {
			break
		}
		t, parent, err := before(n)
		if err != nil {
			return nil, err
		}
		inner, cleanup, err := passRunner(w, opt, fmt.Sprintf("pass-%d", n))
		if err != nil {
			return nil, err
		}
		p := runPass(w, o, inner, false, t, parent, n)
		cleanup()
		verify := t.begin("verify", parent, n, nil)
		m.add(p)
		t.end(verify)
		walls = append(walls, p.wall.Seconds())
	}
	return m, nil
}

// runTimed is a run with tracing off: it reports the end-to-end metrics.
func runTimed(w *workload, opt options) (*outcome, error) {
	var setups []float64
	m, err := timedPasses(w, opt, opt.seconds, func(n int) (*tracer, int, error) {
		reps := 1
		if n == 0 && !opt.smoke {
			reps = firstSetups
		}
		for i := 0; i < reps; i++ {
			d, err := setUp(w, opt)
			if err != nil {
				return nil, -1, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, d.Seconds())
		}
		return nil, -1, nil
	})
	if err != nil {
		return nil, err
	}

	wallRows, cpuRows := columns(m.passes)
	wall, cpu := sum(columnMins(wallRows)), sum(columnMins(cpuRows))
	var allocs, bytes, rss []float64
	var passWalls, passRSS []string
	for _, p := range m.passes {
		allocs = append(allocs, float64(p.allocs))
		bytes = append(bytes, float64(p.bytes))
		rss = append(rss, p.rssMB)
		passWalls = append(passWalls, fmt.Sprintf("%.3f", p.wall.Seconds()))
		passRSS = append(passRSS, fmt.Sprintf("%.1f", p.rssMB))
	}
	pkts := m.first().counts().pkts
	if pkts == 0 {
		return nil, errors.New("no cell delivered a packet")
	}
	out := m.outcome()
	out.Metrics = map[string]metric{
		"wall_s":                  {wall, "s"},
		"cpu_s":                   {cpu, "s"},
		"sim_pkts_per_host_s":     {float64(pkts) / wall, "1/s"},
		"allocs_per_sim_kpkt":     {1000 * median(allocs) / float64(pkts), "count"},
		"alloc_bytes_per_sim_pkt": {median(bytes) / float64(pkts), "B"},
		"peak_rss_mb":             {median(rss), "MB"},
		// Process start to main is paid once and added as is, so that
		// work moved into package initialisation shows.
		"setup_s":       {opt.initTime.Seconds() + median(setups), "s"},
		"paper_err_pct": {paperErrPct(m.first().refs), "%"},
	}
	out.samples = map[string]string{
		"wall_s":      fmt.Sprintf("%d passes x %d cells; pass walls %s s", len(m.passes), len(m.first().cells), strings.Join(passWalls, " ")),
		"setup_s":     fmt.Sprintf("%d set-ups", len(setups)),
		"peak_rss_mb": fmt.Sprintf("per pass %s MB", strings.Join(passRSS, " ")),
	}
	return out, nil
}

// outcome fills in what timed and traced runs share.
func (m *measured) outcome() *outcome {
	return &outcome{
		Correct:   m.failed == 0,
		Attempted: m.cells,
		Failed:    m.failed,
		digest:    m.digest,
		passes:    len(m.passes),
		cells:     len(m.first().cells),
		refs:      len(m.first().refs),
		notes:     m.notes,
	}
}
