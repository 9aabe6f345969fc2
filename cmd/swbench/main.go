// Command swbench runs the paper's benchmarking methodology from the
// command line; run it without arguments for the verbs and their flags.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	swbench "repro"
)

func usageText() string {
	return `usage: swbench <list|run|topo|rplus|ndr|windows|figure|table|all|campaign|worker|serve-cache|cache> [flags]
  swbench list
  swbench run -switch vpp -scenario p2p|p2v|v2v|loopback [-size N] [-bidir] [-chain N] [-rate-gbps G] [-latency]
              [-cores N -dispatch rss|rtc [-rss-policy roundrobin|flowhash]]  # multi-core data plane
  swbench run -switch vpp -topology graph.json          # custom topology as the scenario
  swbench topo [-file graph.json | -scenario p2p [-chain N] [-bidir] [-reversed] [-latency-topology]]
               [-format json|dot] [-validate]           # compile and print a topology
  swbench rplus -switch vpp -scenario p2p
  swbench ndr -switch vpp -scenario p2p [-loss-tolerance N]
  swbench windows -switch snabb -n 10      # windowed time series
  swbench figure ` + figureIDs("|") + ` [-quick] [-compare] [-workers N]
  swbench table 1|2|3|4|5 [-quick] [-compare] [-workers N]
  swbench all [-quick] [-compare] [-workers N]
  swbench campaign list | <name> [-quick] [-workers N] [-timeout D] [-cache-dir P] [-artifacts F] [-resume]
                 [-fabric host:port] [-cache URL] [-manifest F]   # distributed fleet execution
  swbench worker -join host:port [-cache URL] [-cache-dir P] [-id S] [-batch N]   # join a campaign fleet
  swbench serve-cache -dir P [-listen host:port]   # export a result cache to the fleet
  swbench cache stats -dir P | -url U
  swbench cache prune -dir P -max-bytes N          # oldest-accessed-first eviction
  (figure, table, and all also take -fabric and -cache; plus -cpuprofile F and -memprofile F)
`
}

func usage() {
	fmt.Fprint(os.Stderr, usageText())
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "list":
		swbench.RenderTable1(os.Stdout)
	case "run":
		err = runCmd(os.Args[2:])
	case "topo":
		err = topoCmd(os.Args[2:])
	case "rplus":
		err = rplusCmd(os.Args[2:])
	case "ndr":
		err = ndrCmd(os.Args[2:])
	case "windows":
		err = windowsCmd(os.Args[2:])
	case "figure":
		err = figureCmd(os.Args[2:])
	case "table":
		err = tableCmd(os.Args[2:])
	case "all":
		err = allCmd(os.Args[2:])
	case "campaign":
		err = campaignCmd(os.Args[2:])
	case "worker":
		err = workerCmd(os.Args[2:])
	case "serve-cache":
		err = serveCacheCmd(os.Args[2:])
	case "cache":
		err = cacheCmd(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		os.Exit(1)
	}
}

func parseScenario(s string) (swbench.ScenarioKind, error) {
	switch strings.ToLower(s) {
	case "p2p":
		return swbench.P2P, nil
	case "p2v":
		return swbench.P2V, nil
	case "v2v":
		return swbench.V2V, nil
	case "loopback":
		return swbench.Loopback, nil
	}
	return 0, fmt.Errorf("unknown scenario %q (want p2p, p2v, v2v, loopback)", s)
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	cfg := swbench.Config{}
	fs.StringVar(&cfg.Switch, "switch", "vpp", "switch under test")
	scenario := fs.String("scenario", "p2p", "p2p, p2v, v2v, or loopback")
	fs.IntVar(&cfg.FrameLen, "size", 64, "frame length in bytes")
	fs.BoolVar(&cfg.Bidir, "bidir", false, "bidirectional traffic")
	fs.IntVar(&cfg.Chain, "chain", 1, "loopback VNF chain length")
	fs.BoolVar(&cfg.Reversed, "reversed", false, "p2v only: measure the VM-to-NIC direction")
	rate := fs.Float64("rate-gbps", 0, "offered load per direction in Gbps (0 = saturate)")
	latency := fs.Bool("latency", false, "inject latency probes")
	durationMs := fs.Float64("duration-ms", 20, "measurement window (simulated ms)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	fs.IntVar(&cfg.SUTCores, "cores", 1, "SUT data-plane cores (poll-mode switches only)")
	fs.StringVar(&cfg.Dispatch, "dispatch", "", "multi-core dispatch mode: rss or rtc (default rss when -cores > 1)")
	fs.StringVar(&cfg.RSSPolicy, "rss-policy", "", "rss steering: roundrobin or flowhash (default roundrobin)")
	fs.IntVar(&cfg.Flows, "flows", 1, "number of synthetic flows")
	fs.Float64Var(&cfg.ZipfSkew, "zipf", 0, "Zipf flow-popularity skew (0 = round-robin flows)")
	fs.Float64Var(&cfg.RuleUpdateRate, "rule-update-rate", 0, "mid-run rule installs+revokes per simulated second (0 = off)")
	fs.BoolVar(&cfg.Containers, "containers", false, "host VNFs in containers instead of VMs")
	fs.StringVar(&cfg.CapturePath, "pcap", "", "dump delivered frames to this pcap file")
	fs.BoolVar(&cfg.IMIX, "imix", false, "classic IMIX frame-size mix instead of -size")
	topoFile := fs.String("topology", "", "JSON topology graph file (runs it as the custom scenario)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *topoFile != "" {
		data, err := os.ReadFile(*topoFile)
		if err != nil {
			return err
		}
		g, err := swbench.ParseTopology(data)
		if err != nil {
			return err
		}
		cfg.Scenario = swbench.Custom
		cfg.Topology = g
	} else {
		scn, err := parseScenario(*scenario)
		if err != nil {
			return err
		}
		cfg.Scenario = scn
	}
	cfg.Rate = swbench.BitRate(*rate * 1e9)
	cfg.Duration = swbench.Time(*durationMs * float64(swbench.Millisecond))
	cfg.Seed = *seed
	if *latency {
		cfg.ProbeEvery = 20 * swbench.Microsecond
	}
	res, err := swbench.Run(cfg)
	if err != nil {
		return err
	}
	swbench.RenderResult(os.Stdout, res)
	return nil
}

func rplusCmd(args []string) error {
	fs := flag.NewFlagSet("rplus", flag.ExitOnError)
	cfg := swbench.Config{}
	fs.StringVar(&cfg.Switch, "switch", "vpp", "switch under test")
	scenario := fs.String("scenario", "p2p", "p2p, p2v, v2v, or loopback")
	fs.IntVar(&cfg.FrameLen, "size", 64, "frame length in bytes")
	fs.IntVar(&cfg.Chain, "chain", 1, "loopback VNF chain length")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scn, err := parseScenario(*scenario)
	if err != nil {
		return err
	}
	cfg.Scenario = scn
	rp, err := swbench.EstimateRPlus(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("R+ = %.3f Mpps\n", rp/1e6)
	return nil
}

func suiteFlags(fs *flag.FlagSet) (*bool, *bool, *int, *profiler) {
	quick := fs.Bool("quick", false, "short simulation windows")
	compare := fs.Bool("compare", false, "show the paper's values alongside")
	workers := fs.Int("workers", 0, "worker pool size (0 = all cores, 1 = serial)")
	return quick, compare, workers, addProfileFlags(fs)
}

// fabricFlags adds the fleet flags shared by the figure/table/all verbs.
func fabricFlags(fs *flag.FlagSet) (fabricAddr, cacheURL *string) {
	fabricAddr = fs.String("fabric", "", "run cells on a worker fleet: coordinator listen address (host:port)")
	cacheURL = fs.String("cache", "", "shared result-cache server URL")
	return fabricAddr, cacheURL
}

// profiled runs fn under the requested CPU/heap profiles.
func profiled(p *profiler, fn func() error) error {
	if err := p.start(); err != nil {
		return err
	}
	err := fn()
	if perr := p.stop(); err == nil {
		err = perr
	}
	return err
}

// suiteOpts maps the shared -quick flag to its simulation windows.
func suiteOpts(quick bool) swbench.RunOpts {
	if quick {
		return swbench.Quick
	}
	return swbench.Full
}

// figureFamily is one `swbench figure <id>` family: run executes its grid
// on a runner, render prints the outcome as text and csv writes it for
// plotting. The usage text, the figure verb and `all` share this table.
type figureFamily struct {
	id     string
	run    func(r swbench.Runner, o swbench.RunOpts) (any, error)
	render func(w io.Writer, data any, compare bool)
	csv    func(w io.Writer, data any) error
}

// family erases a figure family's result type T, so families with
// different result types sit in one table.
func family[T any](id string,
	run func(swbench.Runner, swbench.RunOpts) (T, error),
	render func(io.Writer, T, bool),
	csv func(io.Writer, T) error) figureFamily {
	return figureFamily{
		id:     id,
		run:    func(r swbench.Runner, o swbench.RunOpts) (any, error) { return run(r, o) },
		render: func(w io.Writer, data any, compare bool) { render(w, data.(T), compare) },
		csv:    func(w io.Writer, data any) error { return csv(w, data.(T)) },
	}
}

// throughput is the family of one of the paper's throughput figures.
func throughput(id string) figureFamily {
	return family(id,
		func(r swbench.Runner, o swbench.RunOpts) (*swbench.Figure, error) { return swbench.FigureOn(r, id, o) },
		swbench.RenderFigure, swbench.WriteFigureCSV)
}

var figureFamilies = []figureFamily{
	family("1", swbench.Figure1On,
		func(w io.Writer, pts []swbench.Figure1Point, _ bool) { swbench.RenderFigure1(w, pts) },
		swbench.WriteFigure1CSV),
	throughput("4a"), throughput("4b"), throughput("4c"), throughput("5"), throughput("6"),
	family("scaling", swbench.FigureScalingOn,
		func(w io.Writer, fig *swbench.ScalingFigure, _ bool) { swbench.RenderScalingFigure(w, fig) },
		swbench.WriteScalingCSV),
	family("churn", swbench.FigureChurnOn,
		func(w io.Writer, fig *swbench.ChurnFigure, _ bool) { swbench.RenderChurnFigure(w, fig) },
		swbench.WriteChurnCSV),
}

// figureIDs joins the figure ids in table order.
func figureIDs(sep string) string {
	ids := make([]string, len(figureFamilies))
	for i, f := range figureFamilies {
		ids[i] = f.id
	}
	return strings.Join(ids, sep)
}

func lookupFigure(id string) (figureFamily, error) {
	for _, f := range figureFamilies {
		if f.id == id {
			return f, nil
		}
	}
	return figureFamily{}, fmt.Errorf("unknown figure %q (want %s)", id, figureIDs(", "))
}

func figureCmd(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("figure needs an id: %s", figureIDs(", "))
	}
	id := args[0]
	fs := flag.NewFlagSet("figure", flag.ExitOnError)
	quick, compare, workers, prof := suiteFlags(fs)
	fabricAddr, cacheURL := fabricFlags(fs)
	csvPath := fs.String("csv", "", "also write the figure data as CSV to this path")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	r, closeRunner, err := newRunner(*workers, "", false, *fabricAddr, *cacheURL)
	if err != nil {
		return err
	}
	defer closeRunner()
	return profiled(prof, func() error {
		if *csvPath != "" {
			return figureCSV(r, id, suiteOpts(*quick), *csvPath)
		}
		return renderFigure(r, id, suiteOpts(*quick), *compare)
	})
}

func figureCSV(r swbench.Runner, id string, o swbench.RunOpts, path string) error {
	fam, err := lookupFigure(id)
	if err != nil {
		return err
	}
	data, err := fam.run(r, o)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fam.csv(f, data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func windowsCmd(args []string) error {
	fs := flag.NewFlagSet("windows", flag.ExitOnError)
	cfg := swbench.Config{}
	fs.StringVar(&cfg.Switch, "switch", "snabb", "switch under test")
	scenario := fs.String("scenario", "p2p", "p2p, p2v, v2v, or loopback")
	fs.IntVar(&cfg.FrameLen, "size", 64, "frame length in bytes")
	fs.IntVar(&cfg.Chain, "chain", 1, "loopback VNF chain length")
	n := fs.Int("n", 10, "number of windows")
	durationMs := fs.Float64("duration-ms", 10, "total measured span (simulated ms)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scn, err := parseScenario(*scenario)
	if err != nil {
		return err
	}
	cfg.Scenario = scn
	cfg.Warmup = swbench.Microsecond // expose the transient
	cfg.Duration = swbench.Time(*durationMs * float64(swbench.Millisecond))
	pts, res, err := swbench.RunWindows(cfg, *n)
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Printf("  t=%8.1fus  %6.2f Gbps  %6.2f Mpps\n", p.Start.Microseconds(), p.Gbps, p.Mpps)
	}
	fmt.Printf("aggregate: %.2f Gbps\n", res.Gbps)
	return nil
}

func renderFigure(r swbench.Runner, id string, o swbench.RunOpts, compare bool) error {
	fam, err := lookupFigure(id)
	if err != nil {
		return err
	}
	data, err := fam.run(r, o)
	if err != nil {
		return err
	}
	fam.render(os.Stdout, data, compare)
	return nil
}

func tableCmd(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("table needs an id: 1, 2, 3, 4, 5")
	}
	id := args[0]
	fs := flag.NewFlagSet("table", flag.ExitOnError)
	quick, compare, workers, prof := suiteFlags(fs)
	fabricAddr, cacheURL := fabricFlags(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	r, closeRunner, err := newRunner(*workers, "", false, *fabricAddr, *cacheURL)
	if err != nil {
		return err
	}
	defer closeRunner()
	return profiled(prof, func() error {
		return renderTable(r, id, suiteOpts(*quick), *compare)
	})
}

func renderTable(r swbench.Runner, id string, o swbench.RunOpts, compare bool) error {
	switch id {
	case "1":
		swbench.RenderTable1(os.Stdout)
	case "2":
		swbench.RenderTable2(os.Stdout)
	case "3":
		cells, err := swbench.Table3On(r, o)
		if err != nil {
			return err
		}
		swbench.RenderTable3(os.Stdout, cells, compare)
	case "4":
		rows, err := swbench.Table4On(r, o)
		if err != nil {
			return err
		}
		swbench.RenderTable4(os.Stdout, rows, compare)
	case "5":
		swbench.RenderTable5(os.Stdout)
	default:
		return fmt.Errorf("unknown table %q", id)
	}
	return nil
}

func allCmd(args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	quick, compare, workers, prof := suiteFlags(fs)
	fabricAddr, cacheURL := fabricFlags(fs)
	cacheDir := fs.String("cache-dir", "", "content-addressed result cache directory")
	progress := fs.Bool("progress", false, "stream per-cell progress to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	r, closeRunner, err := newRunner(*workers, *cacheDir, *progress, *fabricAddr, *cacheURL)
	if err != nil {
		return err
	}
	defer closeRunner()
	o := suiteOpts(*quick)
	return profiled(prof, func() error {
		for _, id := range []string{"1", "2"} {
			if err := renderTable(r, id, o, *compare); err != nil {
				return err
			}
			fmt.Println()
		}
		for _, id := range []string{"1", "4a", "4b", "4c", "5", "6"} {
			if err := renderFigure(r, id, o, *compare); err != nil {
				return err
			}
			fmt.Println()
		}
		for _, id := range []string{"3", "4", "5"} {
			if err := renderTable(r, id, o, *compare); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	})
}

func ndrCmd(args []string) error {
	fs := flag.NewFlagSet("ndr", flag.ExitOnError)
	cfg := swbench.Config{}
	fs.StringVar(&cfg.Switch, "switch", "vpp", "switch under test")
	scenario := fs.String("scenario", "p2p", "p2p, p2v, v2v, or loopback")
	fs.IntVar(&cfg.FrameLen, "size", 64, "frame length in bytes")
	fs.IntVar(&cfg.Chain, "chain", 1, "loopback VNF chain length")
	tol := fs.Int64("loss-tolerance", 0, "frames of loss allowed per trial (RFC 2544 uses 0)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scn, err := parseScenario(*scenario)
	if err != nil {
		return err
	}
	cfg.Scenario = scn
	res, err := swbench.FindNDR(cfg, swbench.NDROptions{LossTolerance: *tol})
	if err != nil {
		return err
	}
	for _, tr := range res.Trials {
		verdict := "FAIL"
		if tr.Passed {
			verdict = "pass"
		}
		fmt.Printf("  trial %8.3f Mpps  lost=%-6d %s\n", tr.PPS/1e6, tr.Lost, verdict)
	}
	fmt.Printf("NDR = %.3f Mpps\n", res.PPS/1e6)
	rp, err := swbench.EstimateRPlus(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("R+  = %.3f Mpps (the paper's methodology)\n", rp/1e6)
	return nil
}
