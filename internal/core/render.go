package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/switches/switchdef"
)

// This file renders experiments as fixed-width text tables — the output of
// the swbench CLI and the source of EXPERIMENTS.md.

// RenderFigure writes a grid figure as one captioned table per group of
// its family's outer axes (direction × chain, dispatch × frame size, flow
// mix × update rate), columns = the x-axis, rows = switches, "-" where the
// switch cannot run the cell. With compare=true a "paper" column is added
// where the paper's prose states a value.
func RenderFigure(w io.Writer, fig *Figure, compare bool) {
	f, err := lookupGrid(fig.ID)
	if err != nil {
		fmt.Fprintln(w, err)
		return
	}
	compare = compare && f.paper != nil
	type cellKey struct{ row, col string }
	type table struct {
		caption    string
		rows, cols []string
		cells      map[cellKey]*ThroughputPoint
	}
	var tables []*table
	byCaption := map[string]*table{}
	for i := range fig.Pts {
		pt := &fig.Pts[i]
		caption := f.caption(pt)
		t := byCaption[caption]
		if t == nil {
			t = &table{caption: caption, cells: map[cellKey]*ThroughputPoint{}}
			byCaption[caption] = t
			tables = append(tables, t)
		}
		t.rows = appendNew(t.rows, pt.Switch)
		col := f.column(pt)
		t.cols = appendNew(t.cols, col)
		t.cells[cellKey{pt.Switch, col}] = pt
	}
	fmt.Fprintln(w, f.header)
	for _, t := range tables {
		fmt.Fprintf(w, "\n  %s:\n", t.caption)
		fmt.Fprintf(w, "  %-10s", "switch")
		for _, col := range t.cols {
			fmt.Fprintf(w, " %*s", f.width, col)
			if compare {
				fmt.Fprintf(w, " %9s", "(paper)")
			}
		}
		fmt.Fprintln(w)
		for _, row := range t.rows {
			fmt.Fprintf(w, "  %-10s", row)
			for _, col := range t.cols {
				text, ref := "-", ""
				if pt := t.cells[cellKey{row, col}]; pt != nil {
					if !pt.Unsupported {
						text = f.cell(pt)
					}
					if compare {
						if v, ok := f.paper(pt); ok {
							ref = fmt.Sprintf("%.2f", v)
						}
					}
				}
				fmt.Fprintf(w, " %*s", f.width, text)
				if compare {
					fmt.Fprintf(w, " %9s", ref)
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// appendNew appends s unless list already holds it.
func appendNew(list []string, s string) []string {
	for _, have := range list {
		if have == s {
			return list
		}
	}
	return append(list, s)
}

// RenderFigure1 writes the scatter data of Fig. 1.
func RenderFigure1(w io.Writer, pts []Figure1Point) {
	fmt.Fprintln(w, "Figure 1: bidirectional p2p, 64B — throughput vs RTT at 0.95·R⁺")
	fmt.Fprintf(w, "  %-10s %10s %12s %12s\n", "switch", "Gbps", "mean RTT us", "std RTT us")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-10s %10.2f %12.1f %12.1f\n", p.Switch, p.Gbps, p.MeanUs, p.StdUs)
	}
}

// RenderTable1 writes the design-space taxonomy (paper Table 1) from the
// switch registry.
func RenderTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: taxonomy of the evaluated switches")
	fmt.Fprintf(w, "  %-10s %-15s %-13s %-13s %-11s %-8s %-10s %s\n",
		"switch", "architecture", "paradigm", "processing", "virt iface", "reprog", "languages", "main purpose")
	for _, name := range Switches {
		info, err := switchdef.Lookup(name)
		if err != nil {
			continue
		}
		arch := "modular"
		if info.SelfContained {
			arch = "self-contained"
		}
		fmt.Fprintf(w, "  %-10s %-15s %-13s %-13s %-11s %-8s %-10s %s\n",
			info.Display, arch, info.Paradigm, info.ProcessingModel,
			info.VirtualIface, info.Reprogrammability, info.Languages, info.MainPurpose)
	}
}

// RenderTable2 writes the parameter tunings (paper Table 2).
func RenderTable2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: applied parameter tunings")
	for _, name := range Switches {
		info, err := switchdef.Lookup(name)
		if err != nil || info.Tuning == "" {
			continue
		}
		fmt.Fprintf(w, "  %-10s %s\n", info.Display, info.Tuning)
	}
}

// RenderTable3 writes the RTT latency table, optionally with the paper's
// values inline.
func RenderTable3(w io.Writer, cells []Table3Cell, compare bool) {
	fmt.Fprintln(w, "Table 3: RTT latency (µs) for p2p and loopback, 64B")
	byScenario := map[string]map[string]Table3Cell{}
	var scenarios []string
	for _, c := range cells {
		if byScenario[c.Scenario] == nil {
			byScenario[c.Scenario] = map[string]Table3Cell{}
			scenarios = append(scenarios, c.Scenario)
		}
		byScenario[c.Scenario][c.Switch] = c
	}
	for _, scn := range scenarios {
		fmt.Fprintf(w, "\n  %s (loads 0.10 / 0.50 / 0.99 · R⁺):\n", scn)
		for _, name := range Switches {
			c, ok := byScenario[scn][name]
			if !ok {
				continue
			}
			if c.Unsupported {
				fmt.Fprintf(w, "  %-10s %28s\n", name, "-")
				continue
			}
			fmt.Fprintf(w, "  %-10s %8.1f %8.1f %8.1f", name, c.MeanUs[0], c.MeanUs[1], c.MeanUs[2])
			if compare {
				if ref, ok := PaperTable3[name][scn]; ok {
					fmt.Fprintf(w, "   (paper: %.1f / %.1f / %.1f)", ref[0], ref[1], ref[2])
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// RenderTable4 writes the v2v latency table.
func RenderTable4(w io.Writer, rows []Table4Row, compare bool) {
	fmt.Fprintln(w, "Table 4: RTT latency (µs) for v2v at 1 Mpps (software timestamps)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %8.1f", r.Switch, r.MeanUs)
		if compare {
			if ref, ok := PaperTable4[r.Switch]; ok {
				fmt.Fprintf(w, "   (paper: %.0f)", ref)
			}
		}
		fmt.Fprintln(w)
	}
}

// RenderTable5 writes the use-case summary (paper Table 5).
func RenderTable5(w io.Writer) {
	fmt.Fprintln(w, "Table 5: software switch use cases")
	fmt.Fprintf(w, "  %-10s %-42s %s\n", "switch", "best at", "remarks")
	for _, name := range Switches {
		info, err := switchdef.Lookup(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "  %-10s %-42s %s\n", info.Display, info.BestAt, info.Remarks)
	}
}

// RenderResult writes one Run result compactly.
func RenderResult(w io.Writer, res Result) {
	cfg := res.Config
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", res.Display, cfg.Scenario)
	if cfg.Scenario == Loopback {
		fmt.Fprintf(&b, " chain=%d", cfg.Chain)
	}
	dir := "uni"
	if cfg.Bidir {
		dir = "bidir"
	}
	fmt.Fprintf(&b, " %dB %s: %.2f Gbps (%.2f Mpps", cfg.FrameLen, dir, res.Gbps, res.Mpps)
	for _, d := range res.Dirs {
		fmt.Fprintf(&b, "; dir %.2f", d.Gbps)
	}
	fmt.Fprintf(&b, ") drops=%d sut-busy=%.0f%%", res.Drops, res.SUTBusyFrac*100)
	if res.EffectiveCores > 0 {
		fmt.Fprintf(&b, " cores=%d/%d(%s)", res.EffectiveCores, cfg.SUTCores, cfg.Dispatch)
	}
	if res.Latency.N > 0 {
		fmt.Fprintf(&b, " rtt: %s", res.Latency)
	}
	fmt.Fprintln(w, b.String())
}
