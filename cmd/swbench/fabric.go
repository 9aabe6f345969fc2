package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	swbench "repro"
)

// buildStore composes the requested result-store tiers: a local on-disk
// cache dir and/or a shared cache-server URL. Both empty returns nil.
func buildStore(cacheDir, cacheURL string) (swbench.ResultStore, *swbench.ResultCache, error) {
	var (
		local  *swbench.ResultCache
		remote swbench.ResultStore
	)
	if cacheDir != "" {
		c, err := swbench.OpenResultCache(cacheDir)
		if err != nil {
			return nil, nil, err
		}
		local = c
	}
	if cacheURL != "" {
		remote = swbench.NewFabricCacheClient(cacheURL)
	}
	if local == nil {
		return swbench.NewTieredStore(nil, remote), nil, nil
	}
	return swbench.NewTieredStore(local, remote), local, nil
}

// startFabric turns this process into a campaign coordinator: it listens
// on addr, prints the join hint, and returns the orchestrator for opts
// with the fleet as its executor. The close function drains the fleet
// (idle workers are told to shut down) and stops the listener.
func startFabric(addr string, opts swbench.CampaignOptions) (*swbench.Orchestrator, func(), error) {
	co := swbench.NewFabricCoordinator(swbench.FabricCoordinatorOptions{})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("fabric: listening on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: co}
	go srv.Serve(ln)
	fmt.Fprintf(os.Stderr, "fabric: coordinator on %s — join workers with: swbench worker -join %s\n",
		ln.Addr(), ln.Addr())
	r := swbench.NewFabricRunner(context.Background(), co, opts)
	closeFn := func() {
		co.Close()
		// One idle-poll beat so workers observe the shutdown signal and
		// exit cleanly before the listener goes away.
		time.Sleep(600 * time.Millisecond)
		srv.Close()
	}
	return r, closeFn, nil
}

// workerCmd is the `swbench worker` verb: a daemon that joins a
// coordinator, leases cells, checks the shared cache first, runs the rest
// through the standard per-cell isolation, and streams completions back.
func workerCmd(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	join := fs.String("join", "", "coordinator address (host:port or URL); required")
	cacheURL := fs.String("cache", "", "shared cache server URL")
	cacheDir := fs.String("cache-dir", "", "local result-cache tier directory")
	id := fs.String("id", "", "worker identity in leases and progress (default host-pid)")
	timeout := fs.Duration("timeout", 0, "per-cell wall-clock timeout (coordinator's budget wins; 0 = unlimited)")
	batch := fs.Int("batch", 0, "cells per lease (0 = 4)")
	poll := fs.Duration("poll", 0, "idle re-poll interval (0 = 250ms)")
	quiet := fs.Bool("quiet", false, "suppress per-cell log lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *join == "" {
		return fmt.Errorf("worker needs -join <coordinator address>")
	}
	store, _, err := buildStore(*cacheDir, *cacheURL)
	if err != nil {
		return err
	}
	opts := swbench.FabricWorkerOptions{
		ID: *id, Coordinator: *join, Cache: store,
		Timeout: *timeout, Batch: *batch, Poll: *poll,
	}
	if !*quiet {
		opts.Log = os.Stderr
	}
	return swbench.RunFabricWorker(context.Background(), opts)
}

// serveCacheCmd is the `swbench serve-cache` verb: export a result-cache
// directory to the fleet over HTTP.
func serveCacheCmd(args []string) error {
	fs := flag.NewFlagSet("serve-cache", flag.ExitOnError)
	dir := fs.String("dir", "", "result cache directory to serve; required")
	listen := fs.String("listen", "127.0.0.1:8711", "listen address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("serve-cache needs -dir <cache directory>")
	}
	cache, err := swbench.OpenResultCache(*dir)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	entries, bytes := cache.Stats()
	fmt.Fprintf(os.Stderr, "cache server on %s: %d entries, %.2f MB (%s)\n",
		ln.Addr(), entries, float64(bytes)/1e6, *dir)
	return (&http.Server{Handler: swbench.NewFabricCacheServer(cache)}).Serve(ln)
}

// cacheCmd is the `swbench cache` verb: local cache maintenance.
//
//	swbench cache stats -dir P | -url U
//	swbench cache prune -dir P -max-bytes N
func cacheCmd(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("cache needs a subcommand: stats, prune")
	}
	switch args[0] {
	case "stats":
		fs := flag.NewFlagSet("cache stats", flag.ExitOnError)
		dir := fs.String("dir", "", "result cache directory")
		url := fs.String("url", "", "cache server URL (query /stats instead of a local dir)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		switch {
		case *url != "":
			st, err := swbench.NewFabricCacheClient(*url).Stats()
			if err != nil {
				return err
			}
			fmt.Printf("cache %s: %d entries, %.2f MB\n", *url, st.Entries, float64(st.Bytes)/1e6)
			fmt.Printf("  gets %d (hits %d), puts %d (stores %d, deduped %d)\n",
				st.Gets, st.Hits, st.Puts, st.Stores, st.Deduped)
		case *dir != "":
			cache, err := swbench.OpenResultCache(*dir)
			if err != nil {
				return err
			}
			entries, bytes := cache.Stats()
			fmt.Printf("cache %s: %d entries, %.2f MB\n", *dir, entries, float64(bytes)/1e6)
		default:
			return fmt.Errorf("cache stats needs -dir or -url")
		}
	case "prune":
		fs := flag.NewFlagSet("cache prune", flag.ExitOnError)
		dir := fs.String("dir", "", "result cache directory; required")
		maxBytes := fs.Int64("max-bytes", 0, "evict oldest-accessed entries until the cache is at or below this size")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if *dir == "" {
			return fmt.Errorf("cache prune needs -dir <cache directory>")
		}
		cache, err := swbench.OpenResultCache(*dir)
		if err != nil {
			return err
		}
		st, err := cache.Prune(*maxBytes)
		if err != nil {
			return err
		}
		fmt.Printf("pruned %s: %d/%d entries removed, %.2f MB -> %.2f MB\n",
			*dir, st.Removed, st.Scanned, float64(st.BytesBefore)/1e6, float64(st.BytesAfter)/1e6)
	default:
		return fmt.Errorf("unknown cache subcommand %q (want stats, prune)", args[0])
	}
	return nil
}
