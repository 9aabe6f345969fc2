package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	swbench "repro"
)

// newRunner builds the runner the figure/table/all verbs route their
// experiment grids through: the in-process orchestrator by default, or —
// when fabricAddr is set — a fleet coordinator that shards cells to
// joined workers. The returned close function drains the fabric (no-op
// for the local path). workers<=0 uses every core; 1 is the serial path.
func newRunner(workers int, cacheDir string, progress bool, fabricAddr, cacheURL string) (swbench.Runner, func(), error) {
	var events func(swbench.CampaignEvent)
	if progress {
		events = progressPrinter(os.Stderr)
	}
	store, _, err := buildStore(cacheDir, cacheURL)
	if err != nil {
		return nil, nil, err
	}
	if fabricAddr != "" {
		return startFabric(fabricAddr, store, nil, 0, events)
	}
	opts := swbench.CampaignOptions{Workers: workers, Cache: store, Events: events}
	return swbench.NewOrchestrator(context.Background(), opts), func() {}, nil
}

// campaignCmd is the `swbench campaign` verb: run a named experiment
// campaign on the worker pool, stream progress, log JSONL artifacts, and
// exit non-zero if any cell failed.
func campaignCmd(args []string) error {
	if len(args) >= 1 && args[0] == "list" {
		for _, name := range swbench.BuiltinCampaignNames() {
			c, err := swbench.BuiltinCampaign(name, swbench.Quick)
			if err != nil {
				return err
			}
			fmt.Printf("  %-12s %3d cells\n", name, len(c.Specs))
		}
		return nil
	}
	if len(args) < 1 {
		return fmt.Errorf("campaign needs a name (try: swbench campaign list)")
	}
	name := args[0]

	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	quick := fs.Bool("quick", false, "short simulation windows")
	workers := fs.Int("workers", 0, "worker pool size (0 = all cores, 1 = serial)")
	timeout := fs.Duration("timeout", 0, "per-cell wall-clock timeout (0 = unlimited)")
	cacheDir := fs.String("cache-dir", "", "content-addressed result cache directory")
	cacheURL := fs.String("cache", "", "shared cache server URL (fleet-wide result dedup)")
	fabricAddr := fs.String("fabric", "", "run cells on a worker fleet: coordinator listen address (host:port)")
	manifestPath := fs.String("manifest", "", "resumable campaign manifest (JSONL); recorded cells replay instead of re-running")
	artifacts := fs.String("artifacts", "", "write a JSONL artifact log to this path")
	resume := fs.Bool("resume", false, "append to an existing artifact log instead of truncating (pair with -cache-dir to skip measured cells)")
	benchOut := fs.String("bench-out", "", "run serial+parallel+cached passes and write a benchmark summary JSON to this path")
	quiet := fs.Bool("quiet", false, "suppress the live progress stream")
	prof := addProfileFlags(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if err := prof.start(); err != nil {
		return err
	}
	defer func() {
		if err := prof.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "swbench: profile:", err)
		}
	}()

	o := suiteOpts(*quick)
	c, err := swbench.BuiltinCampaign(name, o)
	if err != nil {
		return err
	}
	if *benchOut != "" {
		return benchCampaign(c, *quick, *workers, *cacheDir, *benchOut, !*quiet)
	}

	store, localCache, err := buildStore(*cacheDir, *cacheURL)
	if err != nil {
		return err
	}
	var manifest *swbench.CampaignManifest
	if *manifestPath != "" {
		if manifest, err = swbench.OpenCampaignManifest(*manifestPath); err != nil {
			return err
		}
		defer manifest.Close()
		if n := manifest.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "manifest %s: %d cells already done\n", *manifestPath, n)
		}
	}
	var events func(swbench.CampaignEvent)
	if !*quiet {
		events = progressPrinter(os.Stderr)
	}

	var rep *swbench.CampaignReport
	if *fabricAddr != "" {
		r, closeFabric, err := startFabric(*fabricAddr, store, manifest, *timeout, events)
		if err != nil {
			return err
		}
		rep, err = r.(*swbench.FabricRunner).RunCampaign(c)
		closeFabric()
		if err != nil {
			return err
		}
	} else {
		copts := swbench.CampaignOptions{
			Workers: *workers, Timeout: *timeout,
			Cache: store, Manifest: manifest, Events: events,
		}
		if rep, err = swbench.NewOrchestrator(context.Background(), copts).Run(c); err != nil {
			return err
		}
	}
	if *artifacts != "" {
		if err := writeArtifacts(*artifacts, rep, *resume); err != nil {
			return err
		}
	}
	fmt.Printf("campaign %s: %d cells in %.2fs (%d cached, %d failed)\n",
		rep.Name, len(rep.Outcomes), rep.Wall.Seconds(), rep.CacheHits, rep.Failed)
	printCacheLine(localCache, *cacheDir, *cacheURL)
	printWorkerCounts(rep)
	for _, out := range rep.Outcomes {
		if out.Panicked {
			fmt.Fprintf(os.Stderr, "--- cell %s panicked ---\n%v\n%s\n", out.Spec.ID, out.Err, out.Stack)
		}
	}
	return rep.Err()
}

// printCacheLine reports the result cache's size after the campaign: the
// local tier's entry count and bytes, plus the shared server's when one
// is configured.
func printCacheLine(localCache *swbench.ResultCache, cacheDir, cacheURL string) {
	if localCache != nil {
		entries, bytes := localCache.Stats()
		fmt.Printf("cache %s: %d entries, %.2f MB\n", cacheDir, entries, float64(bytes)/1e6)
	}
	if cacheURL != "" {
		if st, err := swbench.NewFabricCacheClient(cacheURL).Stats(); err == nil {
			fmt.Printf("cache %s: %d entries, %.2f MB (hits %d/%d gets, %d deduped puts)\n",
				cacheURL, st.Entries, float64(st.Bytes)/1e6, st.Hits, st.Gets, st.Deduped)
		}
	}
}

// printWorkerCounts reports cells per executor identity, sorted by name —
// the straggler view of a fabric run.
func printWorkerCounts(rep *swbench.CampaignReport) {
	counts := rep.WorkerCounts()
	if len(counts) == 0 {
		return
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	line := "cells by executor:"
	for _, name := range names {
		line += fmt.Sprintf(" %s=%d", name, counts[name])
	}
	fmt.Println(line)
}

func writeArtifacts(path string, rep *swbench.CampaignReport, appendLog bool) error {
	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if appendLog {
		flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	if err := swbench.WriteCampaignArtifacts(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchSummary is the BENCH_campaign.json schema: the perf trajectory
// record future changes compare against.
type benchSummary struct {
	Campaign        string  `json:"campaign"`
	Quick           bool    `json:"quick"`
	Cells           int     `json:"cells"`
	Workers         int     `json:"workers"`
	CPUs            int     `json:"cpus"`
	GOOS            string  `json:"goos"`
	GOARCH          string  `json:"goarch"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
	CachedSeconds   float64 `json:"cached_seconds"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	Failed          int     `json:"failed"`

	// Fabric passes: the same campaign sharded over loopback HTTP workers
	// with a shared cache server — cold (empty cache) and warm (every cell
	// answered by the shared tier).
	FabricWorkers      int     `json:"fabric_workers"`
	FabricSeconds      float64 `json:"fabric_seconds"`
	FabricSpeedup      float64 `json:"fabric_speedup_2workers"`
	FabricWarmSeconds  float64 `json:"fabric_warm_seconds"`
	FabricCacheHitRate float64 `json:"fabric_cache_hit_rate"`
}

// benchCampaign measures the orchestrator itself: the campaign once at
// Workers=1 without a cache, once at the requested width filling a fresh
// cache, and once more against the warm cache.
func benchCampaign(c swbench.ExperimentCampaign, quick bool, workers int, cacheDir, outPath string, progress bool) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cacheDir == "" {
		dir, err := os.MkdirTemp("", "swbench-campaign-cache-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cacheDir = dir
	}
	cache, err := swbench.OpenResultCache(cacheDir)
	if err != nil {
		return err
	}
	var events func(swbench.CampaignEvent)
	if progress {
		events = progressPrinter(os.Stderr)
	}
	run := func(label string, opts swbench.CampaignOptions) (*swbench.CampaignReport, error) {
		opts.Events = events
		fmt.Fprintf(os.Stderr, "== %s pass (%d workers) ==\n", label, max(opts.Workers, 1))
		rep, err := swbench.NewOrchestrator(context.Background(), opts).Run(c)
		if err != nil {
			return nil, err
		}
		return rep, nil
	}

	serial, err := run("serial", swbench.CampaignOptions{Workers: 1})
	if err != nil {
		return err
	}
	parallel, err := run("parallel", swbench.CampaignOptions{Workers: workers, Cache: cache})
	if err != nil {
		return err
	}
	cached, err := run("cached", swbench.CampaignOptions{Workers: workers, Cache: cache})
	if err != nil {
		return err
	}

	const fabricWorkers = 2
	fabricCold, fabricWarm, err := benchFabric(c, fabricWorkers, events)
	if err != nil {
		return err
	}

	sum := benchSummary{
		Campaign:        c.Name,
		Quick:           quick,
		Cells:           len(c.Specs),
		Workers:         workers,
		CPUs:            runtime.NumCPU(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		SerialSeconds:   roundMs(serial.Wall),
		ParallelSeconds: roundMs(parallel.Wall),
		CachedSeconds:   roundMs(cached.Wall),
		Failed:          serial.Failed + parallel.Failed + cached.Failed + fabricCold.Failed + fabricWarm.Failed,

		FabricWorkers:     fabricWorkers,
		FabricSeconds:     roundMs(fabricCold.Wall),
		FabricWarmSeconds: roundMs(fabricWarm.Wall),
	}
	if parallel.Wall > 0 {
		sum.Speedup = float64(serial.Wall) / float64(parallel.Wall)
	}
	if n := len(cached.Outcomes); n > 0 {
		sum.CacheHitRate = float64(cached.CacheHits) / float64(n)
	}
	if fabricCold.Wall > 0 {
		sum.FabricSpeedup = float64(serial.Wall) / float64(fabricCold.Wall)
	}
	if n := len(fabricWarm.Outcomes); n > 0 {
		sum.FabricCacheHitRate = float64(fabricWarm.CacheHits) / float64(n)
	}
	blob, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("campaign %s: %d cells  serial %.2fs  parallel(%d) %.2fs  speedup %.2fx  cached %.2fs (hit rate %.0f%%)\n",
		c.Name, sum.Cells, sum.SerialSeconds, workers, sum.ParallelSeconds, sum.Speedup,
		sum.CachedSeconds, 100*sum.CacheHitRate)
	fmt.Printf("fabric(%d workers): cold %.2fs  speedup %.2fx  warm %.2fs (shared-cache hit rate %.0f%%)\n",
		fabricWorkers, sum.FabricSeconds, sum.FabricSpeedup, sum.FabricWarmSeconds, 100*sum.FabricCacheHitRate)
	return nil
}

// benchFabric runs the campaign on an in-process fleet: a coordinator and
// a cache server on loopback HTTP, n worker goroutines sharing the cache.
// The cold pass measures fleet execution from an empty cache; the warm
// pass re-submits the same campaign so every cell is answered by the
// shared tier (workers report cache hits without re-running).
func benchFabric(c swbench.ExperimentCampaign, n int, events func(swbench.CampaignEvent)) (cold, warm *swbench.CampaignReport, err error) {
	dir, err := os.MkdirTemp("", "swbench-fabric-cache-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	cache, err := swbench.OpenResultCache(dir)
	if err != nil {
		return nil, nil, err
	}
	cacheLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	cacheSrv := &http.Server{Handler: swbench.NewFabricCacheServer(cache)}
	go cacheSrv.Serve(cacheLn)
	defer cacheSrv.Close()

	co := swbench.NewFabricCoordinator(swbench.FabricCoordinatorOptions{})
	defer co.Close()
	coLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	coSrv := &http.Server{Handler: co}
	go coSrv.Serve(coLn)
	defer coSrv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < n; i++ {
		go swbench.RunFabricWorker(ctx, swbench.FabricWorkerOptions{
			ID:          fmt.Sprintf("w%d", i+1),
			Coordinator: coLn.Addr().String(),
			Cache:       swbench.NewFabricCacheClient(cacheLn.Addr().String()),
			Poll:        10 * time.Millisecond,
		})
	}

	// No requester-side cache: the warm pass's hits must come through the
	// workers' shared tier, measuring the fleet cache path itself.
	r := swbench.NewFabricRunner(ctx, co, swbench.FabricRunnerOptions{Events: events})
	fmt.Fprintf(os.Stderr, "== fabric cold pass (%d workers) ==\n", n)
	if cold, err = r.RunCampaign(c); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "== fabric warm pass (%d workers) ==\n", n)
	if warm, err = r.RunCampaign(c); err != nil {
		return nil, nil, err
	}
	return cold, warm, nil
}

func roundMs(d time.Duration) float64 { return float64(d.Milliseconds()) / 1e3 }
