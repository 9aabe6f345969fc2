package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fabric"
)

// fleet runs the workload's cells through the campaign and fabric
// layers: serially over a cold cache, again over the filled cache, in
// parallel over another cold cache, and through one coordinator and one
// worker on the host's loopback interface with the cache warm, so that
// only the protocol is timed. Every such pass must reproduce the digest
// of the timed passes.
type fleet struct {
	w      *workload
	opt    options
	env    probeEnv
	tr     *tracer
	root   int
	want   string // the timed passes' digest
	out    *outcome
	probes probeSet
}

// pass runs the workload once on inner under a span named name and
// checks its outputs.
func (f *fleet) pass(name string, inner core.Runner, whole bool) pass {
	id := f.tr.begin(name, f.root, 0, nil)
	p := runPass(f.w, f.w.runOpts(f.opt), inner, whole, nil, -1, 0)
	f.tr.end(id)
	f.out.Attempted += len(p.cells)
	if p.err != nil || p.digest() != f.want {
		f.fail(len(p.cells), fmt.Sprintf("%s: outputs differ from the serial passes (suite error: %v)", name, p.err))
	}
	return p
}

func (f *fleet) fail(cells int, note string) {
	f.out.Correct = false
	f.out.Failed += cells
	f.out.notes = append(f.out.notes, note)
}

func (f *fleet) probe() error {
	lm := f.out.Metrics
	// hits counts the cells a pass served from the cache.
	var hits int
	events := func(ev campaign.Event) {
		if ev.Type == campaign.EventCached {
			hits++
		}
	}

	cache, cleanup, err := newCache(f.opt, "fleet")
	if err != nil {
		return err
	}
	defer cleanup()
	cold := f.pass("campaign.cold", orchestrator(cache, 1, events), false)
	cells := float64(len(cold.cells))
	// Cells a cold cache answers are cells the suite issued twice.
	lm["campaign.cold_hit_rate"] = metric{float64(hits) / cells, "ratio"}

	// An error is never cached, so a warm pass runs those cells again.
	cacheable := 0
	for _, c := range cold.cells {
		if c.err == nil {
			cacheable++
		}
	}
	hits = 0
	warm := f.pass("campaign.warm", orchestrator(cache, 1, events), false)
	lm["campaign.warm_cell_us"] = metric{1e6 * warm.wall.Seconds() / cells, "us"}
	lm["campaign.warm_hit_rate"] = metric{float64(hits) / float64(max(cacheable, 1)), "ratio"}
	if hits != cacheable {
		f.fail(cacheable-hits, fmt.Sprintf("campaign.warm: %d of %d cacheable cells came from the filled cache", hits, cacheable))
	}

	parCache, parCleanup, err := newCache(f.opt, "fleet-par")
	if err != nil {
		return err
	}
	par := f.pass("campaign.parallel", orchestrator(parCache, runtime.GOMAXPROCS(0), nil), true)
	parCleanup()
	lm["campaign.parallel_speedup"] = metric{cold.wall.Seconds() / par.wall.Seconds(), "ratio"}

	// The store's own operations, on the workload's configs and results.
	var first *cell
	var cfgs []core.Config
	var results []core.Result
	for i, c := range cold.cells {
		if c.err == nil && len(cfgs) < 64 {
			if first == nil {
				first = &cold.cells[i]
			}
			cfgs, results = append(cfgs, c.cfg), append(results, c.res)
		}
	}
	if first == nil {
		return errors.New("no cell returned a result")
	}
	id := f.tr.begin("probe.campaign", f.root, 0, nil)
	f.probes["campaign.key_us"] = f.env.timeBatches(whole(func() int {
		for _, cfg := range cfgs {
			sinkhole += float64(len(campaign.CacheKey(cfg)))
		}
		return len(cfgs)
	}))
	putCache, putCleanup, err := newCache(f.opt, "fleet-put")
	if err != nil {
		return err
	}
	f.probes["campaign.cache_put_us"] = f.env.timeBatches(whole(func() int {
		for i, cfg := range cfgs {
			putCache.Put(cfg, results[i])
		}
		return len(cfgs)
	}))
	putCleanup()
	f.tr.end(id)

	return f.fabric(cache, first)
}

// serve starts an HTTP server for h on a loopback port and returns its
// URL and the function that stops it and waits for it.
func serve(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns when stop closes the server
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// fabric runs the workload through one in-process coordinator and one
// worker over loopback HTTP. The worker's only cache is the cache server
// over the filled store, so every cell is a lease, a cache GET and a
// completion: protocol cost, no simulation.
func (f *fleet) fabric(filled *campaign.Cache, first *cell) error {
	lm := f.out.Metrics
	co := fabric.NewCoordinator(fabric.CoordinatorOptions{})
	coURL, stopCo, err := serve(co)
	if err != nil {
		return err
	}
	defer stopCo()
	cacheURL, stopCache, err := serve(fabric.NewCacheServer(filled))
	if err != nil {
		return err
	}
	defer stopCache()
	client := fabric.NewCacheClient(cacheURL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var workerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		workerErr = fabric.RunWorker(ctx, fabric.WorkerOptions{
			ID: "bench", Coordinator: coURL, Cache: client, Batch: 16, Poll: time.Millisecond,
		})
	}()

	p := f.pass("fabric.loopback", fabric.NewRunner(ctx, co, fabric.RunnerOptions{}), true)
	lm["fabric.lease_complete_us_per_cell"] = metric{1e6 * p.wall.Seconds() / float64(len(p.cells)), "us"}
	lm["fabric.reissued"] = metric{float64(co.Reissued()), "count"}
	if n := co.Reissued(); n != 0 {
		f.fail(int(n), fmt.Sprintf("fabric.loopback: %d cells were re-issued", n))
	}

	id := f.tr.begin("probe.fabric", f.root, 0, nil)
	misses := 0
	f.probes["fabric.cache_get_us"] = f.env.timeBatches(whole(func() int {
		if _, ok := client.Get(first.cfg); !ok {
			misses++
		}
		return 1
	}))
	f.probes["fabric.cache_put_us"] = f.env.timeBatches(whole(func() int {
		client.Put(first.cfg, first.res)
		return 1
	}))
	f.tr.end(id)
	if misses > 0 {
		f.fail(1, fmt.Sprintf("fabric: the cache server missed a stored entry %d times", misses))
	}

	// Closing the coordinator tells the worker to leave.
	co.Close()
	wg.Wait()
	if workerErr != nil && !errors.Is(workerErr, context.Canceled) {
		return fmt.Errorf("fabric worker: %w", workerErr)
	}
	return nil
}
