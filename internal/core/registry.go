package core

import (
	"errors"
	"io"
)

// Experiment is one figure or table of the evaluation. The swbench CLI's
// figure, table and all verbs, its usage text and the named campaigns of
// internal/campaign all read the Experiments table; nothing else lists ids.
type Experiment struct {
	// Kind is "table" or "figure" — the CLI verb that prints it — and ID
	// its id under that verb.
	Kind, ID string
	Title    string
	// Extension marks an experiment beyond the paper's evaluation.
	Extension bool
	// Specs returns the experiment's measurement grid where it is one flat
	// set of independent cells — what a campaign executes. It is nil for
	// the static tables and for Fig. 1 and Table 3, whose second wave of
	// cells depends on the first's results.
	Specs func(o RunOpts) []Config
	// Run executes the experiment on r.
	Run func(r Runner, o RunOpts) (Report, error)
}

// Report is a completed experiment, ready to print.
type Report struct {
	render func(w io.Writer, compare bool)
	csv    func(w io.Writer) error
}

// Render writes the report as a text table; compare adds the paper's values
// where the experiment has them.
func (r Report) Render(w io.Writer, compare bool) { r.render(w, compare) }

// CSV writes the report's data for plotting. Not every experiment has a
// CSV form; those return an error.
func (r Report) CSV(w io.Writer) error {
	if r.csv == nil {
		return errors.New("core: this experiment has no CSV form")
	}
	return r.csv(w)
}

// Experiments lists the evaluation in the paper's order — Tables 1–2,
// Fig. 1, Figs. 4a–6, Tables 3–5 — followed by the extensions.
var Experiments = experiments()

func experiments() []Experiment {
	exps := []Experiment{
		staticTable("1", "taxonomy of the evaluated switches", RenderTable1),
		staticTable("2", "applied parameter tunings", RenderTable2),
		{Kind: "figure", ID: "1", Title: "bidirectional p2p, 64B: throughput vs RTT at 0.95 R+",
			Run: func(r Runner, o RunOpts) (Report, error) {
				pts, err := Figure1On(r, o)
				return Report{
					render: func(w io.Writer, _ bool) { RenderFigure1(w, pts) },
					csv:    func(w io.Writer) error { return WriteFigure1CSV(w, pts) },
				}, err
			}},
	}
	exps = appendGrids(exps, false)
	exps = append(exps,
		Experiment{Kind: "table", ID: "3", Title: "RTT latency for p2p and loopback, 64B",
			Run: func(r Runner, o RunOpts) (Report, error) {
				cells, err := Table3On(r, o)
				return Report{
					render: func(w io.Writer, compare bool) { RenderTable3(w, cells, compare) },
					csv:    func(w io.Writer) error { return WriteTable3CSV(w, cells) },
				}, err
			}},
		Experiment{Kind: "table", ID: "4", Title: "RTT latency for v2v at 1 Mpps (software timestamps)",
			Specs: Table4Specs,
			Run: func(r Runner, o RunOpts) (Report, error) {
				rows, err := Table4On(r, o)
				return Report{render: func(w io.Writer, compare bool) { RenderTable4(w, rows, compare) }}, err
			}},
		staticTable("5", "software switch use cases", RenderTable5),
	)
	return appendGrids(exps, true)
}

// appendGrids appends the grid figures that are, or are not, extensions.
func appendGrids(exps []Experiment, extension bool) []Experiment {
	for _, f := range gridFamilies {
		if f.extension != extension {
			continue
		}
		exps = append(exps, Experiment{Kind: "figure", ID: f.id, Title: f.title, Extension: extension,
			Specs: func(o RunOpts) []Config { return pointConfigs(f.points(o)) },
			Run: func(r Runner, o RunOpts) (Report, error) {
				fig, err := f.run(r, o)
				return Report{
					render: func(w io.Writer, compare bool) { RenderFigure(w, fig, compare) },
					csv:    func(w io.Writer) error { return WriteFigureCSV(w, fig) },
				}, err
			}})
	}
	return exps
}

func staticTable(id, title string, render func(io.Writer)) Experiment {
	return Experiment{Kind: "table", ID: id, Title: title,
		Run: func(Runner, RunOpts) (Report, error) {
			return Report{render: func(w io.Writer, _ bool) { render(w) }}, nil
		}}
}
