// Package campaign orchestrates experiment campaigns: named sets of
// independent deterministic measurements (the cells behind every figure
// and table of the paper) executed by a bounded worker pool, with a
// content-addressed result cache, per-cell panic isolation and wall-clock
// timeouts, a progress/event stream, and a machine-readable JSONL
// artifact log.
//
// One simulation is single-threaded and deterministic; a campaign fans
// many of them out across GOMAXPROCS-bounded workers while preserving
// deterministic result ordering — outcomes are indexed by spec position,
// never by completion order, so a Workers=8 campaign is bit-identical to
// the same campaign at Workers=1.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// Spec is one campaign cell: a named measurement configuration.
type Spec struct {
	// ID is a stable human-readable cell name, e.g. "fig4a/vpp-p2p-64".
	// AutoID derives one from the config when the caller doesn't care.
	ID string
	// Cfg is the measurement. It is canonicalized (defaults applied)
	// before hashing and execution.
	Cfg core.Config
}

// AutoID derives a stable cell name from a config.
func AutoID(cfg core.Config) string {
	c := cfg.Canonical()
	var b strings.Builder
	fmt.Fprintf(&b, "%s-%s", c.Switch, c.Scenario)
	if c.Scenario == core.Loopback {
		fmt.Fprintf(&b, "-c%d", c.Chain)
	}
	if c.IMIX {
		b.WriteString("-imix")
	} else {
		fmt.Fprintf(&b, "-%d", c.FrameLen)
	}
	if c.Bidir {
		b.WriteString("-bidir")
	}
	if c.Flows > 1 {
		fmt.Fprintf(&b, "-%df", c.Flows)
	}
	if c.ZipfSkew > 0 {
		fmt.Fprintf(&b, "-zipf%g", c.ZipfSkew)
	}
	if c.RuleUpdateRate > 0 {
		fmt.Fprintf(&b, "-%gups", c.RuleUpdateRate)
	}
	if c.SUTCores > 1 {
		fmt.Fprintf(&b, "-%dcore-%s", c.SUTCores, c.Dispatch)
		if c.Dispatch == core.DispatchRSS && c.RSSPolicy != "" {
			fmt.Fprintf(&b, "-%s", c.RSSPolicy)
		}
	}
	if c.Reversed {
		b.WriteString("-rev")
	}
	if c.LatencyTopology {
		b.WriteString("-lat")
	}
	if c.Rate == 0 {
		b.WriteString("-sat")
	} else {
		fmt.Fprintf(&b, "-%.0fmbps", float64(c.Rate)/1e6)
	}
	if c.ProbeEvery > 0 {
		b.WriteString("-probed")
	}
	return b.String()
}

// Campaign is a named set of specs.
type Campaign struct {
	Name  string
	Specs []Spec
}

// Options configures an Orchestrator.
type Options struct {
	// Workers bounds the pool; <=0 means GOMAXPROCS. Workers=1 is the
	// serial path — same code, one goroutine.
	Workers int
	// Timeout is the per-cell wall-clock budget (0 = unlimited). A cell
	// that exceeds it fails with ErrCellTimeout; because a simulation
	// cannot be preempted mid-step, its goroutine is abandoned and the
	// worker slot moves on.
	Timeout time.Duration
	// Cache, when non-nil, serves repeated configs and stores fresh
	// results. A *Cache is the local on-disk store; internal/fabric
	// supplies HTTP-backed and tiered implementations.
	Cache Store
	// Events receives progress events (nil = silent). Callbacks are
	// serialized; they must not block for long.
	Events func(Event)
	// Execute runs one cell the cache did not answer (nil = ExecuteCell
	// over core.Run, in process). It owns isolation and the Timeout
	// budget, and may stamp Outcome.Worker and Outcome.Cached;
	// internal/fabric supplies a fleet executor.
	Execute func(ctx context.Context, spec Spec, timeout time.Duration) Outcome
}

// Orchestrator executes campaigns under one Options set. It implements
// core.Runner, so the figure/table suites run through it directly.
type Orchestrator struct {
	opts Options
	ctx  context.Context
}

// New returns an orchestrator. ctx cancels campaign execution between
// cells (nil means context.Background()).
func New(ctx context.Context, opts Options) *Orchestrator {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Execute == nil {
		opts.Execute = func(ctx context.Context, spec Spec, timeout time.Duration) Outcome {
			return ExecuteCell(ctx, core.Run, spec, timeout)
		}
	}
	return &Orchestrator{opts: opts, ctx: ctx}
}

// ErrCellTimeout marks a cell that exceeded Options.Timeout.
var ErrCellTimeout = errors.New("campaign: cell exceeded its wall-clock timeout")

// ErrCellPanicked marks a cell whose simulation panicked; Outcome.Stack
// holds the captured stack.
var ErrCellPanicked = errors.New("campaign: cell panicked")

// Outcome is one cell's execution record, in spec order.
type Outcome struct {
	Spec   Spec
	Result core.Result
	Err    error
	// Cached reports a result served from a cache without running.
	Cached bool
	// Worker identifies the executor: "local" for in-process execution
	// and cache hits, and the worker's ID for cells a fabric worker ran.
	Worker string
	// Panicked cells carry the recovered value's message in Err and the
	// goroutine stack here.
	Panicked bool
	Stack    string
	// Wall is host wall-clock time spent executing the cell (a timing
	// field: excluded from determinism comparisons).
	Wall time.Duration
}

// Report is a completed campaign.
type Report struct {
	Name     string
	Outcomes []Outcome // spec order
	// Wall is the campaign's host wall-clock time.
	Wall time.Duration
	// CacheHits counts cells served from the cache.
	CacheHits int
	// Failed counts cells with a non-nil error (a core.Unsupported
	// per-switch limit is not a failure).
	Failed int
}

// Err summarizes the failed cells, nil if none failed.
func (r *Report) Err() error {
	if r.Failed == 0 {
		return nil
	}
	var ids []string
	for _, o := range r.Outcomes {
		if CellFailed(o.Err) {
			ids = append(ids, o.Spec.ID)
		}
	}
	return fmt.Errorf("campaign %s: %d/%d cells failed: %s",
		r.Name, r.Failed, len(r.Outcomes), strings.Join(ids, ", "))
}

// CellFailed reports whether a cell error is a real failure. The
// per-switch limits the figures render as "-" (core.Unsupported) are not;
// everything else (panics, timeouts, hard errors) is.
func CellFailed(err error) bool {
	return err != nil && !core.Unsupported(err)
}

// WorkerCounts aggregates completed cells per executor identity — the
// straggler view of a fabric run ("worker-a: 40 cells, worker-b: 7").
func (r *Report) WorkerCounts() map[string]int {
	counts := make(map[string]int)
	for _, o := range r.Outcomes {
		if o.Worker != "" {
			counts[o.Worker]++
		}
	}
	return counts
}

// Run executes the campaign: every cell exactly once, fanned out over the
// worker pool, outcomes in spec order. Cell failures (errors, panics,
// timeouts) do not abort the campaign — they are collected in the report;
// only context cancellation returns an error with a partial report.
func (o *Orchestrator) Run(c Campaign) (*Report, error) {
	start := time.Now()
	rep := &Report{Name: c.Name, Outcomes: make([]Outcome, len(c.Specs))}
	for i := range c.Specs {
		if c.Specs[i].ID == "" {
			c.Specs[i].ID = AutoID(c.Specs[i].Cfg)
		}
	}

	var (
		mu   sync.Mutex // guards done/emit state
		done int
	)
	emit := func(ev Event) {
		if o.opts.Events == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		ev.Total = len(c.Specs)
		ev.Done = done
		ev.Elapsed = time.Since(start)
		if done > 0 && done < ev.Total {
			perCell := ev.Elapsed / time.Duration(done)
			ev.ETA = perCell * time.Duration(ev.Total-done)
			ev.Rate = float64(done) / ev.Elapsed.Seconds()
		}
		o.opts.Events(ev)
	}
	finish := func(i int, out Outcome) {
		rep.Outcomes[i] = out
		mu.Lock()
		done++
		mu.Unlock()
		typ := EventFinished
		switch {
		case CellFailed(out.Err):
			typ = EventFailed
		case out.Cached:
			typ = EventCached
		}
		emit(Event{Type: typ, Index: i, ID: out.Spec.ID, Err: out.Err, Wall: out.Wall, Worker: out.Worker})
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(o.opts.Workers, len(c.Specs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				spec := c.Specs[i]
				emit(Event{Type: EventStarted, Index: i, ID: spec.ID})
				finish(i, o.runCell(spec))
			}
		}()
	}

	var ctxErr error
feed:
	for i := range c.Specs {
		// The upfront check makes cancellation deterministic: a racing
		// select could otherwise keep winning the send case.
		if err := o.ctx.Err(); err != nil {
			ctxErr = err
		} else {
			select {
			case idx <- i:
				continue
			case <-o.ctx.Done():
				ctxErr = o.ctx.Err()
			}
		}
		// Cells never handed to a worker fail with the context error
		// (indices >= i were not yet scheduled).
		for j := i; j < len(c.Specs); j++ {
			rep.Outcomes[j] = Outcome{Spec: c.Specs[j], Err: ctxErr}
		}
		break feed
	}
	close(idx)
	wg.Wait()
	if ctxErr == nil {
		// Cancelled after every cell was handed out: in-flight cells
		// carry the context error.
		ctxErr = o.ctx.Err()
	}

	rep.Wall = time.Since(start)
	for _, out := range rep.Outcomes {
		if out.Cached {
			rep.CacheHits++
		}
		if CellFailed(out.Err) {
			rep.Failed++
		}
	}
	return rep, ctxErr
}

// runCell executes one cell: cache lookup, then the executor, whose
// successful result feeds back into the cache. Served cells are timed
// here; executed cells keep the executor's own wall time.
func (o *Orchestrator) runCell(spec Spec) Outcome {
	start := time.Now()
	if o.opts.Cache != nil {
		if res, ok := o.opts.Cache.Get(spec.Cfg); ok {
			return Outcome{Spec: spec, Result: res, Cached: true, Worker: "local", Wall: time.Since(start)}
		}
	}

	out := o.opts.Execute(o.ctx, spec, o.opts.Timeout)
	if out.Worker == "" {
		out.Worker = "local"
	}
	// A cell the executor served from its own cache is already stored.
	if out.Err == nil && o.opts.Cache != nil && !out.Cached {
		o.opts.Cache.Put(spec.Cfg, out.Result)
	}
	return out
}

// ExecuteCell runs one cell with panic recovery and an optional
// wall-clock timeout — the single per-cell isolation path shared by the
// in-process executor and the fabric workers. Because a simulation cannot
// be preempted mid-step, a timed-out or cancelled cell's goroutine is
// abandoned and the caller moves on. The returned Outcome carries the
// host wall-clock time; the caller stamps executor identity.
func ExecuteCell(ctx context.Context, run func(core.Config) (core.Result, error), spec Spec, timeout time.Duration) (out Outcome) {
	out = Outcome{Spec: spec}
	start := time.Now()
	defer func() { out.Wall = time.Since(start) }()
	if ctx == nil {
		ctx = context.Background()
	}
	if run == nil {
		run = core.Run
	}

	type cellRet struct {
		res      core.Result
		err      error
		panicked bool
		stack    string
	}
	ch := make(chan cellRet, 1)
	go func() {
		var ret cellRet
		defer func() {
			if r := recover(); r != nil {
				ret = cellRet{
					err:      fmt.Errorf("%w: %v", ErrCellPanicked, r),
					panicked: true,
					stack:    string(debug.Stack()),
				}
			}
			ch <- ret
		}()
		ret.res, ret.err = run(spec.Cfg)
	}()

	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case ret := <-ch:
		out.Result, out.Err = ret.res, ret.err
		out.Panicked, out.Stack = ret.panicked, ret.stack
	case <-expired:
		out.Err = fmt.Errorf("%w (%v)", ErrCellTimeout, timeout)
	case <-ctx.Done():
		out.Err = ctx.Err()
	}
	return out
}

// RunAll implements core.Runner: the figure/table suites fan their grids
// out through the orchestrator's pool and cache.
func (o *Orchestrator) RunAll(specs []core.Config) []core.SpecOutcome {
	c := Campaign{Name: "batch", Specs: make([]Spec, len(specs))}
	for i, cfg := range specs {
		c.Specs[i] = Spec{Cfg: cfg}
	}
	rep, _ := o.Run(c)
	outs := make([]core.SpecOutcome, len(specs))
	for i, out := range rep.Outcomes {
		outs[i] = core.SpecOutcome{Result: out.Result, Err: out.Err}
	}
	return outs
}
