// Command swbench runs the paper's benchmarking methodology from the
// command line; run it without arguments for the verbs and their flags.
package main

import (
	"flag"
	"fmt"
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
  swbench figure ` + experimentIDs("figure", "|") + ` [-quick] [-compare] [-workers N]
  swbench table ` + experimentIDs("table", "|") + ` [-quick] [-compare] [-workers N]
  swbench all [-quick] [-compare] [-workers N]
  swbench campaign list | <name> [-quick] [-workers N] [-timeout D] [-cache-dir P] [-artifacts F]
                 [-fabric host:port] [-cache URL]   # distributed fleet execution
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
	case "figure", "table":
		err = experimentCmd(os.Args[1], os.Args[2:])
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

// cellFlags declares the flags that name one cell — -switch (defaulting
// to sw), -scenario, -size and -chain — into cfg on fs. Once fs is parsed,
// the returned function sets cfg.Scenario from -scenario.
func cellFlags(fs *flag.FlagSet, cfg *swbench.Config, sw string) func() error {
	fs.StringVar(&cfg.Switch, "switch", sw, "switch under test")
	scenario := fs.String("scenario", "p2p", "p2p, p2v, v2v, or loopback")
	fs.IntVar(&cfg.FrameLen, "size", 64, "frame length in bytes")
	fs.IntVar(&cfg.Chain, "chain", 1, "loopback VNF chain length")
	return func() (err error) {
		cfg.Scenario, err = parseScenario(*scenario)
		return err
	}
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	cfg := swbench.Config{}
	parseCell := cellFlags(fs, &cfg, "vpp")
	fs.BoolVar(&cfg.Bidir, "bidir", false, "bidirectional traffic")
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
	} else if err := parseCell(); err != nil {
		return err
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
	parseCell := cellFlags(fs, &cfg, "vpp")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := parseCell(); err != nil {
		return err
	}
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

// experimentIDs joins the ids of one kind ("figure" or "table") of
// experiment, in registry order.
func experimentIDs(kind, sep string) string {
	var ids []string
	for _, e := range swbench.Experiments() {
		if e.Kind == kind {
			ids = append(ids, e.ID)
		}
	}
	return strings.Join(ids, sep)
}

func lookupExperiment(kind, id string) (swbench.Experiment, error) {
	for _, e := range swbench.Experiments() {
		if e.Kind == kind && e.ID == id {
			return e, nil
		}
	}
	return swbench.Experiment{}, fmt.Errorf("unknown %s %q (want %s)", kind, id, experimentIDs(kind, ", "))
}

// experimentCmd is the figure and table verbs: run one registry entry and
// print it, or — figures only — write its data as CSV.
func experimentCmd(kind string, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("%s needs an id: %s", kind, experimentIDs(kind, ", "))
	}
	id := args[0]
	fs := flag.NewFlagSet(kind, flag.ExitOnError)
	quick, compare, workers, prof := suiteFlags(fs)
	fabricAddr, cacheURL := fabricFlags(fs)
	csvPath := new(string)
	if kind == "figure" {
		csvPath = fs.String("csv", "", "also write the figure data as CSV to this path")
	}
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	r, closeRunner, err := newRunner(*workers, "", false, *fabricAddr, *cacheURL)
	if err != nil {
		return err
	}
	defer closeRunner()
	return profiled(prof, func() error {
		e, err := lookupExperiment(kind, id)
		if err != nil {
			return err
		}
		return runExperiment(e, r, suiteOpts(*quick), *compare, *csvPath)
	})
}

// runExperiment runs one registry entry on r and prints it to standard
// output, or writes its CSV form to csvPath when that is set.
func runExperiment(e swbench.Experiment, r swbench.Runner, o swbench.RunOpts, compare bool, csvPath string) error {
	rep, err := e.Run(r, o)
	if err != nil {
		return err
	}
	if csvPath == "" {
		rep.Render(os.Stdout, compare)
		return nil
	}
	f, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	if err := rep.CSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func windowsCmd(args []string) error {
	fs := flag.NewFlagSet("windows", flag.ExitOnError)
	cfg := swbench.Config{}
	parseCell := cellFlags(fs, &cfg, "snabb")
	n := fs.Int("n", 10, "number of windows")
	durationMs := fs.Float64("duration-ms", 10, "total measured span (simulated ms)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := parseCell(); err != nil {
		return err
	}
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
		for _, e := range swbench.Experiments() {
			if e.Extension {
				continue
			}
			if err := runExperiment(e, r, o, *compare, ""); err != nil {
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
	parseCell := cellFlags(fs, &cfg, "vpp")
	tol := fs.Int64("loss-tolerance", 0, "frames of loss allowed per trial (RFC 2544 uses 0)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := parseCell(); err != nil {
		return err
	}
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
