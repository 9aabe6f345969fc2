package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	swbench "repro"
)

// newRunner builds the runner the figure/table/all verbs route their
// experiment grids through (see orchestrate). workers<=0 uses every core;
// 1 is the serial path.
func newRunner(workers int, cacheDir string, progress bool, fabricAddr, cacheURL string) (*swbench.Orchestrator, func(), error) {
	opts := swbench.CampaignOptions{Workers: workers}
	if progress {
		opts.Events = progressPrinter(os.Stderr)
	}
	var err error
	if opts.Cache, _, err = buildStore(cacheDir, cacheURL); err != nil {
		return nil, nil, err
	}
	return orchestrate(opts, fabricAddr)
}

// orchestrate returns the one campaign loop for opts: cells execute in
// process, or — when fabricAddr is set — on the worker fleet this
// process coordinates. The returned close function drains the fleet
// (no-op for the local path).
func orchestrate(opts swbench.CampaignOptions, fabricAddr string) (*swbench.Orchestrator, func(), error) {
	if fabricAddr != "" {
		return startFabric(fabricAddr, opts)
	}
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
	artifacts := fs.String("artifacts", "", "write a JSONL artifact log to this path")
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

	c, err := swbench.BuiltinCampaign(name, suiteOpts(*quick))
	if err != nil {
		return err
	}

	store, localCache, err := buildStore(*cacheDir, *cacheURL)
	if err != nil {
		return err
	}
	var events func(swbench.CampaignEvent)
	if !*quiet {
		events = progressPrinter(os.Stderr)
	}

	o, closeFabric, err := orchestrate(swbench.CampaignOptions{
		Workers: *workers, Timeout: *timeout,
		Cache: store, Events: events,
	}, *fabricAddr)
	if err != nil {
		return err
	}
	rep, err := o.Run(c)
	closeFabric()
	if err != nil {
		return err
	}
	if *artifacts != "" {
		if err := writeArtifacts(*artifacts, rep); err != nil {
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

func writeArtifacts(path string, rep *swbench.CampaignReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := swbench.WriteCampaignArtifacts(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
