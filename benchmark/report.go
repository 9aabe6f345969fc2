package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// The report is what `benchmark` prints without -workload: every workload
// run -repeats times with tracing off and once with tracing on, each run
// a fresh child process of this binary so that memory, CPU time and
// allocation counts belong to one workload, one child at a time.

// reportOptions are the settings of a report.
type reportOptions struct {
	seed       uint64
	seconds    float64
	repeats    int
	smoke      bool
	out        string // write the report here as JSON too
	traceOut   string // prefix of the per-workload Chrome trace files
	profileDir string
}

// stat is one end-to-end metric over a workload's repeats.
type stat struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// workloadReport is everything the report knows about one workload.
type workloadReport struct {
	Name            string            `json:"name"`
	EndToEnd        map[string]stat   `json:"end_to_end"`
	PerLayer        map[string]metric `json:"per_layer"`
	FailedCellsFrac float64           `json:"failed_cells_frac"`
	Attempted       int               `json:"attempted"`
	Failed          int               `json:"failed"`
	SimDigest       string            `json:"sim_digest"`
	Notes           []string          `json:"notes,omitempty"`
	// TimedDetail and TracedDetail are the lines the last timed run and
	// the traced run printed for a reader.
	TimedDetail  string `json:"timed_detail,omitempty"`
	TracedDetail string `json:"traced_detail,omitempty"`
}

// conditions are the measurement conditions a report is only comparable
// under.
type conditions struct {
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	Platform   string            `json:"platform"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	LoadAvg    string            `json:"loadavg_at_start"`
	Seed       uint64            `json:"seed"`
	Repeats    int               `json:"repeats"`
	Seconds    float64           `json:"seconds_per_run"`
	Windows    map[string]string `json:"windows"`
}

// fullReport is one set of runs over every workload.
type fullReport struct {
	Conditions conditions       `json:"conditions"`
	Workloads  []workloadReport `json:"workloads"`
}

func measureConditions(opt reportOptions) conditions {
	c := conditions{
		Commit: "unknown", GoVersion: runtime.Version(),
		Platform: runtime.GOOS + "/" + runtime.GOARCH,
		NumCPU:   runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		LoadAvg: "unknown", Seed: opt.seed, Repeats: opt.repeats, Seconds: opt.seconds,
		Windows: map[string]string{},
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		c.Commit = strings.TrimSpace(string(out))
	}
	if blob, err := os.ReadFile("/proc/loadavg"); err == nil {
		c.LoadAvg = strings.TrimSpace(string(blob))
	}
	for _, w := range workloads {
		window, warmup := w.window, w.warmup
		if opt.smoke {
			window, warmup = ms, ms
		}
		c.Windows[w.name] = fmt.Sprintf("%v window, %v warmup", window, warmup)
	}
	return c
}

// child runs one workload once in a fresh process of this binary and
// parses what it printed.
func child(w *workload, opt reportOptions, trace bool) (*outcome, string, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	args := []string{
		"-workload", w.name, "-seed", strconv.FormatUint(opt.seed, 10),
		"-seconds", formatFloat(opt.seconds), "-trace", "0",
	}
	if trace {
		args[len(args)-1] = "1"
		if opt.traceOut != "" {
			args = append(args, "-trace-out", opt.traceOut+"."+w.name+".json")
		}
		if opt.profileDir != "" {
			args = append(args, "-cpuprofile", opt.profileDir)
		}
	}
	if opt.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	blob, err := cmd.Output()
	if err != nil {
		return nil, "", fmt.Errorf("%s %s: %w", self, strings.Join(args, " "), err)
	}
	return parseRun(string(blob))
}

// parseRun reads a run's output: the result object on the last line and,
// before it, the lines a reader gets.
func parseRun(text string) (*outcome, string, error) {
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var out outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return nil, "", fmt.Errorf("last line is not a result: %w", err)
	}
	for _, l := range lines[:len(lines)-1] {
		switch {
		case strings.HasPrefix(l, "sim_digest "):
			out.digest = strings.TrimPrefix(l, "sim_digest ")
		case strings.HasPrefix(l, "note: "):
			out.notes = append(out.notes, strings.TrimPrefix(l, "note: "))
		}
	}
	return &out, strings.Join(lines[:len(lines)-1], "\n"), nil
}

// measureWorkload runs w's repeats and its traced run.
func measureWorkload(w *workload, opt reportOptions) (workloadReport, error) {
	rep := workloadReport{Name: w.name, EndToEnd: map[string]stat{}}
	values := map[string][]float64{}
	note := func(o *outcome, what string) {
		rep.Attempted += o.Attempted
		rep.Failed += o.Failed
		for _, n := range o.notes {
			rep.Notes = append(rep.Notes, what+": "+n)
		}
		switch {
		case rep.SimDigest == "":
			rep.SimDigest = o.digest
		case o.digest != rep.SimDigest:
			// A digest that does not repeat fails every cell of the run.
			rep.Failed += o.Attempted - o.Failed
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s: sim_digest %.16s differs from the first run's %.16s", what, o.digest, rep.SimDigest))
		}
	}
	for i := 0; i < opt.repeats; i++ {
		o, detail, err := child(w, opt, false)
		if err != nil {
			return rep, err
		}
		note(o, fmt.Sprintf("repeat %d", i+1))
		rep.TimedDetail = detail
		for name, m := range o.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	for _, d := range endToEnd {
		v := values[d.Name]
		lo, hi := minMax(v)
		rep.EndToEnd[d.Name] = stat{Median: median(v), Min: lo, Max: hi, N: len(v), Unit: d.Unit, Values: v}
	}
	o, detail, err := child(w, opt, true)
	if err != nil {
		return rep, err
	}
	note(o, "traced")
	rep.TracedDetail = detail
	rep.PerLayer = o.Metrics
	if rep.Attempted > 0 {
		rep.FailedCellsFrac = float64(rep.Failed) / float64(rep.Attempted)
	}
	return rep, nil
}

// measureAll is one full set: every workload, one after another.
func measureAll(opt reportOptions) (*fullReport, error) {
	rep := &fullReport{Conditions: measureConditions(opt)}
	for i := range workloads {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d timed runs and a traced run of %g s each\n",
			workloads[i].name, opt.repeats, opt.seconds)
		wr, err := measureWorkload(&workloads[i], opt)
		if err != nil {
			return nil, err
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

func (r *fullReport) print() {
	c := r.Conditions
	fmt.Printf("swbench benchmark: commit %s, %s %s, nproc %d, GOMAXPROCS %d, loadavg at start %s\n",
		c.Commit, c.GoVersion, c.Platform, c.NumCPU, c.GOMAXPROCS, c.LoadAvg)
	fmt.Printf("seed %d, %d timed runs + 1 traced run per workload, %g s measured per run\n", c.Seed, c.Repeats, c.Seconds)
	for _, w := range workloads {
		fmt.Printf("  %-15s %s\n", w.name, c.Windows[w.name])
	}
	for _, w := range r.Workloads {
		fmt.Printf("\n== %s\n", w.Name)
		for _, line := range strings.Split(w.TimedDetail, "\n") {
			fmt.Printf("   %s\n", line)
		}
		fmt.Printf("   %-28s %14s %14s %14s %3s  %-6s %s\n", "end-to-end metric", "median", "min", "max", "n", "unit", "bound")
		for _, d := range endToEnd {
			s := w.EndToEnd[d.Name]
			fmt.Printf("   %-28s %14.6g %14.6g %14.6g %3d  %-6s %s by %g %%\n",
				d.Name, s.Median, s.Min, s.Max, s.N, s.Unit, d.Better, 100*d.Bound)
		}
		fmt.Printf("   %-28s %14.6g  (%d of %d cells; must be 0)\n", "failed_cells_frac", w.FailedCellsFrac, w.Failed, w.Attempted)
		fmt.Printf("   %-40s %14s  %s\n", "per-layer metric (traced run)", "value", "unit")
		for _, d := range perLayer {
			m := w.PerLayer[d.Name]
			fmt.Printf("   %-40s %14.6g  %s\n", d.Name, m.Value, m.Unit)
		}
		for _, line := range strings.Split(w.TracedDetail, "\n") {
			fmt.Printf("   %s\n", line)
		}
		for _, n := range w.Notes {
			fmt.Printf("   NOTE %s\n", n)
		}
	}
}

func (r *fullReport) failed() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 || len(w.Notes) > 0 {
			return true
		}
	}
	return false
}

func (r *fullReport) write(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// worse is by what share of a, in the metric's worse direction, b differs
// from a (negative: b is better).
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareAA prints two sets of runs of the same code side by side and
// reports whether they agree: every end-to-end median within its bound
// in both directions, every exact count and every digest identical.
func compareAA(out io.Writer, a, b *fullReport) bool {
	agree := true
	fmt.Fprintf(out, "\nA/A: two sets of runs of the same binary\n")
	fmt.Fprintf(out, "%-15s %-26s %14s %14s %9s %8s\n", "workload", "metric", "median A", "median B", "B worse", "bound")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.Name].Median, wb.EndToEnd[d.Name].Median
			diff := worse(d, ma, mb)
			verdict := ""
			if diff > d.Bound || worse(d, mb, ma) > d.Bound {
				verdict, agree = "  DISAGREE", false
			}
			fmt.Fprintf(out, "%-15s %-26s %14.6g %14.6g %8.2f%% %7.0f%%%s\n", wa.Name, d.Name, ma, mb, 100*diff, 100*d.Bound, verdict)
		}
		if wa.SimDigest != wb.SimDigest {
			fmt.Fprintf(out, "%-15s sim_digest differs: %.16s / %.16s\n", wa.Name, wa.SimDigest, wb.SimDigest)
			agree = false
		}
		for _, d := range perLayer {
			if d.exact && wa.PerLayer[d.Name].Value != wb.PerLayer[d.Name].Value {
				fmt.Fprintf(out, "%-15s %s differs: %g / %g\n", wa.Name, d.Name, wa.PerLayer[d.Name].Value, wb.PerLayer[d.Name].Value)
				agree = false
			}
		}
	}
	if agree {
		fmt.Fprintln(out, "A/A: the two sets agree within every bound, on every exact count and on every sim_digest")
	}
	return agree
}
