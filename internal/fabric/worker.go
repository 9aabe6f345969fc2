package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"os"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

// WorkerOptions configures one worker daemon.
type WorkerOptions struct {
	// ID names the worker in leases, completions, and progress events.
	// Empty derives host-pid.
	ID string
	// Coordinator is the coordinator base URL (http://host:port).
	Coordinator string
	// Cache, when non-nil, is checked before running a leased cell and
	// filled after — typically a Tiered(local dir, shared server) store
	// so the whole fleet dedupes work.
	Cache campaign.Store
	// Timeout is the worker's own per-cell wall-clock budget; the
	// coordinator's per-cell budget (Cell.TimeoutMs), when set, wins.
	Timeout time.Duration
	// Batch is the lease size (work-stealing granularity): small enough
	// that a slow worker cannot hoard cells, large enough to amortize a
	// round trip. 0 means 4.
	Batch int
	// Poll is the idle re-poll interval when the coordinator has no
	// pending cells. 0 means 250ms.
	Poll time.Duration
	// MaxErrors bounds consecutive coordinator request failures before
	// the worker gives up (the coordinator process is gone). 0 means 8.
	MaxErrors int
	// Log receives one line per executed cell (nil = silent).
	Log io.Writer
	// run substitutes the measurement function in tests.
	run func(core.Config) (core.Result, error)
}

// RunWorker joins a coordinator and executes leased cells until the
// coordinator signals shutdown, the context is cancelled, or the
// coordinator stays unreachable past MaxErrors. Each cell runs through
// the same per-cell panic/timeout isolation as the local orchestrator
// (campaign.ExecuteCell), checks the shared cache first, and streams its
// completion back.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	if opts.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		opts.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opts.Batch <= 0 {
		opts.Batch = 4
	}
	if opts.Poll <= 0 {
		opts.Poll = 250 * time.Millisecond
	}
	if opts.MaxErrors <= 0 {
		opts.MaxErrors = 8
	}
	base := opts.Coordinator
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	client := &http.Client{Timeout: 30 * time.Second}

	errs := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lr, err := leaseCells(ctx, client, base, opts.Batch, opts.ID)
		if err != nil {
			errs++
			if errs >= opts.MaxErrors {
				return fmt.Errorf("fabric: worker %s: coordinator unreachable after %d attempts: %w", opts.ID, errs, err)
			}
			if !sleepCtx(ctx, opts.Poll) {
				return ctx.Err()
			}
			continue
		}
		errs = 0
		if lr.Shutdown {
			return nil
		}
		if len(lr.Cells) == 0 {
			if !sleepCtx(ctx, opts.Poll) {
				return ctx.Err()
			}
			continue
		}
		comps := make([]Completion, 0, len(lr.Cells))
		for _, cell := range lr.Cells {
			comps = append(comps, executeCell(ctx, opts, cell))
		}
		if err := postCompletions(ctx, client, base, comps); err != nil {
			// The lease TTL re-issues these cells elsewhere; treat the
			// failed report like any other coordinator outage.
			errs++
			if errs >= opts.MaxErrors {
				return fmt.Errorf("fabric: worker %s: reporting completions: %w", opts.ID, err)
			}
		}
	}
}

// executeCell runs one leased cell: key handshake, shared-cache lookup,
// then the shared isolation path, then cache write-through.
func executeCell(ctx context.Context, opts WorkerOptions, cell Cell) (comp Completion) {
	comp = Completion{Seq: cell.Seq, Worker: opts.ID}
	start := time.Now()
	defer func() { comp.WallMs = float64(time.Since(start).Microseconds()) / 1e3 }()

	// The content address is the correctness handshake: if this binary
	// canonicalizes the config or versions the cost model differently
	// than the coordinator, running the cell would produce a result the
	// requester cannot trust (or cache) — refuse instead.
	if localKey := campaign.CacheKey(cell.Config); localKey != cell.Key {
		comp.ErrKind, comp.Err = encodeErr(versionSkewErr(cell, localKey))
		return comp
	}

	if opts.Cache != nil {
		if res, ok := opts.Cache.Get(cell.Config); ok {
			r := res
			comp.Result, comp.Cached = &r, true
			logCell(opts.Log, opts.ID, cell, "cached", time.Since(start))
			return comp
		}
	}

	timeout := opts.Timeout
	if cell.TimeoutMs > 0 {
		timeout = time.Duration(cell.TimeoutMs) * time.Millisecond
	}
	out := campaign.ExecuteCell(ctx, opts.run, campaign.Spec{ID: cell.ID, Cfg: cell.Config}, timeout)
	if out.Err != nil {
		comp.ErrKind, comp.Err = encodeErr(out.Err)
		comp.Panicked, comp.Stack = out.Panicked, out.Stack
		logCell(opts.Log, opts.ID, cell, "FAILED: "+out.Err.Error(), time.Since(start))
		return comp
	}
	r := out.Result
	comp.Result = &r
	if opts.Cache != nil {
		opts.Cache.Put(cell.Config, out.Result)
	}
	logCell(opts.Log, opts.ID, cell, "ok", time.Since(start))
	return comp
}

func logCell(w io.Writer, id string, cell Cell, status string, wall time.Duration) {
	if w != nil {
		fmt.Fprintf(w, "worker %s: %-44s %-6s %6.2fs\n", id, cell.ID, status, wall.Seconds())
	}
}

func leaseCells(ctx context.Context, client *http.Client, base string, n int, worker string) (LeaseResponse, error) {
	url := fmt.Sprintf("%s/lease?n=%d&worker=%s", base, n, neturl.QueryEscape(worker))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return LeaseResponse{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return LeaseResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return LeaseResponse{}, fmt.Errorf("fabric: lease: %s", resp.Status)
	}
	var lr LeaseResponse
	if err := decodeJSON(io.LimitReader(resp.Body, maxEntryBytes), &lr); err != nil {
		return LeaseResponse{}, err
	}
	return lr, nil
}

func postCompletions(ctx context.Context, client *http.Client, base string, comps []Completion) error {
	blob, err := json.Marshal(comps)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/complete", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fabric: complete: %s", resp.Status)
	}
	return nil
}

// sleepCtx sleeps d unless the context fires first; reports whether the
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
