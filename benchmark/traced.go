package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/core"
)

// runTraced is a run with tracing on: it reports the per-layer metrics.
// Passes alternate between tracing off and on, so the run measures its
// own tracing overhead; then the campaign and fabric layers run the
// workload's cells, and the layer probes run in the workload's shape.
func runTraced(w *workload, opt options) (*outcome, error) {
	tr := newTracer()
	root := tr.begin("workload", -1, 0, map[string]string{"workload": w.name})

	sp := tr.begin("setup", root, 0, nil)
	setup, err := setUp(w, opt)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	stopProfile, err := startProfile(w, opt)
	if err != nil {
		return nil, err
	}
	m, err := timedPasses(w, opt, 0.4*opt.seconds, func(int) (*tracer, int, error) { return tr, root, nil })
	stopProfile()
	if err != nil {
		return nil, err
	}
	out := m.outcome()
	lm := map[string]metric{}
	out.Metrics = lm

	// Counts: the workload's own results, exact on every host.
	n := m.first().counts()
	if n.pkts == 0 {
		return nil, errors.New("no cell delivered a packet")
	}
	lm["core.sim_pkts"] = metric{float64(n.pkts), "count"}
	lm["core.sim_drops"] = metric{float64(n.drops), "count"}
	lm["vhost.host_copies"] = metric{float64(n.copies), "count"}
	lm["switches.rule_updates"] = metric{float64(n.updates), "count"}
	lm["switches.ovs.emc_evictions"] = metric{float64(n.evictions), "count"}
	lm["sim.steps"] = metric{float64(n.steps), "count"}
	lm["sim.steps_per_sim_pkt"] = metric{float64(n.steps) / float64(n.pkts), "ratio"}

	// Spans: where the wall time of the traced executions went.
	cellS, attrs, err := cellSpans(tr.spans, len(m.first().cells))
	if err != nil {
		return nil, err
	}
	for _, g := range allGroups() {
		lm["core.cell_wall_s."+g] = metric{sumWhere(cellS, attrs, "group", g), "s"}
	}
	for _, name := range core.Switches {
		lm["switches."+name+".cell_wall_s"] = metric{sumWhere(cellS, attrs, "switch", name), "s"}
	}
	cellMs := make([]float64, len(cellS))
	for i, s := range cellS {
		cellMs[i] = 1e3 * s
	}
	lm["core.cell_ms.p50"] = metric{percentile(cellMs, 0.50), "ms"}
	lm["core.cell_ms.p75"] = metric{percentile(cellMs, 0.75), "ms"}
	if !supported(750, len(cellMs)) {
		out.notes = append(out.notes, fmt.Sprintf("core.cell_ms.p75 has fewer than ten of %d cells beyond it", len(cellMs)))
	}

	// Tracing overhead is the median over cells of how much longer the
	// cell's fastest traced execution took than its fastest plain one.
	wallRows, _ := columns(m.passes)
	wall := sum(columnMins(wallRows))
	var over []float64
	for i := range m.first().cells {
		plain, traced := math.Inf(1), math.Inf(1)
		for _, p := range m.passes {
			if i >= len(p.cells) {
				continue // a pass that differs has already failed the run
			}
			if c := p.cells[i]; c.traced {
				traced = min(traced, c.wall.Seconds())
			} else {
				plain = min(plain, c.wall.Seconds())
			}
		}
		over = append(over, 100*(traced-plain)/plain)
	}
	lm["bench.trace_overhead_pct"] = metric{median(over), "%"}
	var walls []float64
	for _, p := range m.passes {
		walls = append(walls, p.wall.Seconds())
	}
	lo, hi := minMax(walls)
	lm["bench.wall_spread_pct"] = metric{100 * (hi - lo) / median(walls), "%"}
	lm["bench.first_setup_s"] = metric{(opt.initTime + setup).Seconds(), "s"}

	env, probes := newProbeEnv(w, opt), probeSet{}
	f := &fleet{w: w, opt: opt, env: env, tr: tr, root: root, want: m.digest, out: out, probes: probes}
	if err := f.probe(); err != nil {
		return nil, err
	}
	if err := probeLayers(env, tr, root, probes, lm); err != nil {
		return nil, err
	}
	probes.into(lm)
	attribute(w, opt, m.first(), wall, lm)

	tr.end(root)
	out.samples = map[string]string{
		"core.cell_ms.p50": fmt.Sprintf("%d cells, each traced in %d of %d passes", len(cellMs), len(m.passes)/2, len(m.passes)),
		"probe batches":    probes.batchCounts(),
	}
	if hp, ok := highestSupported(len(cellMs)); ok {
		out.samples["core.cell_ms.p75"] = fmt.Sprintf("%d cells support up to p%g", len(cellMs), float64(hp)/10)
	}
	if opt.traceOut != "" {
		if err := tr.writeChrome(opt.traceOut); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// startProfile starts a CPU profile of the passes when a profile
// directory was given, and returns the function that ends it.
func startProfile(w *workload, opt options) (func(), error) {
	if opt.profileDir == "" {
		return func() {}, nil
	}
	if err := os.MkdirAll(opt.profileDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(opt.profileDir, w.name+".pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// cellSpans returns, for each of the n cells of a pass, the duration
// (seconds) of its fastest "cell" span and that span's attributes.
func cellSpans(spans []span, n int) (fastest []float64, attrs []map[string]string, err error) {
	fastest, attrs = make([]float64, n), make([]map[string]string, n)
	for _, s := range spans {
		if s.Name != "cell" {
			continue
		}
		i, err := strconv.Atoi(s.Attrs["cell"])
		if err != nil || i < 0 || i >= n {
			return nil, nil, fmt.Errorf("cell span %d names cell %q of %d", s.ID, s.Attrs["cell"], n)
		}
		if d := (s.End - s.Start).Seconds(); attrs[i] == nil || d < fastest[i] {
			fastest[i], attrs[i] = d, s.Attrs
		}
	}
	for i, a := range attrs {
		if a == nil {
			return nil, nil, fmt.Errorf("cell %d of %d was never traced", i, n)
		}
	}
	return fastest, attrs, nil
}

func sumWhere(vals []float64, attrs []map[string]string, key, want string) float64 {
	sum := 0.0
	for i, v := range vals {
		if attrs[i][key] == want {
			sum += v
		}
	}
	return sum
}

// probeLayers runs the layer probes in the workload's traffic shape, one
// probe.<layer> span each.
func probeLayers(e probeEnv, tr *tracer, root int, ps probeSet, lm map[string]metric) error {
	for _, lp := range layerProbes() {
		layer, _, _ := strings.Cut(lp.metric, ".")
		id := tr.begin("probe."+layer, root, 0, map[string]string{"metric": lp.metric})
		p, err := lp.run(e)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("probe %s: %w", lp.metric, err)
		}
		ps[lp.metric] = p
		if lp.extra != "" {
			lm[lp.extra] = metric{p.perOp, unitOf(lp.extra)}
		}
	}
	return nil
}

// windowScale is how many frames a cell simulates per frame it counts:
// warmup traffic costs host time and is in no result.
func windowScale(o core.RunOpts) float64 {
	return float64(o.Duration+o.Warmup) / float64(o.Duration)
}

// attribute is the outside-in account of a pass's wall time: each probe's
// cost times the exact number of operations the workload's results
// count, as a share of the wall. The probes run their layer alone, warm
// and without the rest of the simulator evicting its caches, so the
// shares are lower bounds; what they miss is reported, not hidden.
func attribute(w *workload, opt options, p *pass, wall float64, lm map[string]metric) {
	scale := windowScale(w.runOpts(opt))
	var wireFrames, wire2Frames, guestCross, switchNs float64
	for _, c := range p.cells {
		if c.err != nil {
			continue
		}
		var rx int64
		for _, d := range c.res.Dirs {
			rx += d.RxPackets
		}
		hops := 1.0
		if c.cfg.Scenario == core.Loopback {
			hops = float64(c.res.Config.Chain + 1)
		}
		switchNs += float64(rx) * hops * lm["switches."+c.cfg.Switch+".poll_ns_per_frame"].Value
		// Offered frames cross the generator's wire; delivered frames of
		// p2p and loopback cells cross a second one on the way back.
		switch c.cfg.Scenario {
		case core.P2P, core.Loopback:
			wireFrames += float64(rx + c.res.Drops)
			wire2Frames += float64(rx)
		case core.P2V:
			wireFrames += float64(rx + c.res.Drops)
		}
		// One crossing is a host enqueue and a host dequeue: two copies.
		guestCross += float64(c.res.HostCopies) / 2
	}
	wallNs := wall * 1e9
	wire := scale * (wireFrames*lm["tgen.emit_ns_per_frame"].Value + wire2Frames*lm["nic.sendrx_ns_per_frame"].Value) / wallNs
	sw := scale * switchNs / wallNs
	guest := scale * guestCross * (lm["vhost.crossing_ns_per_frame"].Value + lm["vm.l2fwd_ns_per_frame"].Value) / wallNs
	fixed := float64(len(p.cells)) * lm["core.cell_fixed_ms"].Value * 1e6 / wallNs
	lm["attrib.wire_frac"] = metric{wire, "ratio"}
	lm["attrib.switch_frac"] = metric{sw, "ratio"}
	lm["attrib.guest_frac"] = metric{guest, "ratio"}
	lm["attrib.fixed_frac"] = metric{fixed, "ratio"}
	lm["attrib.unexplained_frac"] = metric{1 - wire - sw - guest - fixed, "ratio"}
}
