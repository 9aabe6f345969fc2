// Command benchmark is swbench's end-to-end and per-layer benchmark. See
// README.md in this directory for the workloads, the metrics and how to
// read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/benchmark/procstart"
)

func main() {
	initTime := time.Since(procstart.At)
	var (
		workloadName  = flag.String("workload", "", "run this one workload and print its result object as the last line (empty: the report over every workload)")
		seed          = flag.Uint64("seed", 1, "Config.Seed of every cell and the seed of the probes' RNG")
		seconds       = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace         = flag.Int("trace", 0, "with -workload: 0 is a timed run reporting the end-to-end metrics, 1 a traced run reporting the per-layer metrics")
		smoke         = flag.Bool("smoke", false, "1 ms windows and minimal loops: checks that the benchmark works, measures nothing")
		traceOut      = flag.String("trace-out", "", "write the traced runs' spans as Chrome trace-event JSON: to this file with -workload, to <this>.<workload>.json in a report")
		profileDir    = flag.String("cpuprofile", "", "write a CPU profile of each traced run's passes into this directory, one file per workload")
		repeats       = flag.Int("repeats", 3, "report: timed runs per workload")
		outPath       = flag.String("out", "", "report: also write it to this file as JSON")
		aa            = flag.Bool("aa", false, "report: run two full sets back to back and exit non-zero unless they agree within the bounds")
		printManifest = flag.Bool("manifest", false, "print BENCHMARK.json as this binary defines it, and exit")
	)
	flag.Parse()
	if *printManifest {
		blob, err := json.MarshalIndent(manifest(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(blob))
		return
	}
	// One simulation is one goroutine; more processors only serve the
	// garbage collector and the parallel pass, and four bound how much a
	// larger host can differ from the reference host.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if *workloadName == "" {
		opt := reportOptions{
			seed: *seed, seconds: *seconds, repeats: *repeats, smoke: *smoke,
			out: *outPath, traceOut: *traceOut, profileDir: *profileDir,
		}
		os.Exit(report(opt, *aa))
	}
	w, err := workloadByName(*workloadName)
	if err != nil {
		fatal(err)
	}
	scratch, err := os.MkdirTemp(scratchRoot(), "run-")
	if err != nil {
		fatal(err)
	}
	opt := options{
		seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke,
		scratch: scratch, initTime: initTime, traceOut: *traceOut, profileDir: *profileDir,
	}
	run := runTimed
	if opt.trace {
		run = runTraced
	}
	out, err := run(w, opt)
	os.RemoveAll(scratch)
	if err != nil {
		fatal(err)
	}
	out.print(w, opt)
}

// report prints one set of runs over every workload — two with aa, and
// their comparison — and returns the exit code.
func report(opt reportOptions, aa bool) int {
	first, err := measureAll(opt)
	if err != nil {
		fatal(err)
	}
	first.print()
	if opt.out != "" {
		if err := first.write(opt.out); err != nil {
			fatal(err)
		}
	}
	code := 0
	if first.failed() {
		code = 1
	}
	if aa {
		second, err := measureAll(opt)
		if err != nil {
			fatal(err)
		}
		if second.failed() || !compareAA(os.Stdout, first, second) {
			code = 1
		}
	}
	return code
}

// scratchRoot is where runs keep their temporary files: under the
// working directory, which is the checkout, never the system's /tmp.
func scratchRoot() string {
	dir := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// print writes the run's details for a reader and then, as the last
// line, the result object the driver parses.
func (out *outcome) print(w *workload, opt options) {
	fmt.Printf("workload %s seed %d trace %v: %d passes x %d cells, %d paper reference points\n",
		w.name, opt.seed, opt.trace, out.passes, out.cells, out.refs)
	fmt.Printf("sim_digest %s\n", out.digest)
	names := make([]string, 0, len(out.samples))
	for name := range out.samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("samples: %s: %s\n", name, out.samples[name])
	}
	for _, n := range out.notes {
		fmt.Printf("note: %s\n", n)
	}
	blob, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(blob))
}
