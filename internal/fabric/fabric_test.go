package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/units"
)

// quickCfg is a sub-millisecond measurement so fleet tests stay fast.
func quickCfg(name string, scn core.ScenarioKind) core.Config {
	return core.Config{
		Switch: name, Scenario: scn,
		Duration: 500 * units.Microsecond,
		Warmup:   200 * units.Microsecond,
	}
}

// fleetCampaign mixes switches/scenarios and includes one cell that hits
// BESS's chain cap, so the wire path carries a sentinel error too.
func fleetCampaign() campaign.Campaign {
	var specs []campaign.Spec
	for _, sw := range []string{"vpp", "ovs", "bess", "vale", "snabb", "fastclick"} {
		specs = append(specs, campaign.Spec{Cfg: quickCfg(sw, core.P2P)})
		specs = append(specs, campaign.Spec{Cfg: quickCfg(sw, core.V2V)})
	}
	specs = append(specs, campaign.Spec{
		ID:  "bess-chain-cap",
		Cfg: core.Config{Switch: "bess", Scenario: core.Loopback, Chain: 4},
	})
	return campaign.Campaign{Name: "fleet", Specs: specs}
}

// startFleet wires a coordinator + cache server over real HTTP and joins
// n loopback workers sharing the remote cache tier.
func startFleet(t *testing.T, co *Coordinator, n int) (cacheURL string, wait func()) {
	t.Helper()
	coSrv := httptest.NewServer(co)
	t.Cleanup(coSrv.Close)
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	caSrv := httptest.NewServer(NewCacheServer(cache))
	t.Cleanup(caSrv.Close)

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			err := RunWorker(ctx, WorkerOptions{
				ID:          fmt.Sprintf("w%d", id),
				Coordinator: coSrv.URL,
				Cache:       NewCacheClient(caSrv.URL),
				Poll:        5 * time.Millisecond,
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("worker w%d: %v", id, err)
			}
		}(i)
	}
	return caSrv.URL, wg.Wait
}

// TestFleetMatchesSerial is the acceptance bar: a campaign run on two
// HTTP workers yields byte-identical results, in spec order, to the
// serial single-process run — the fabric is a pure wall-clock optimization.
func TestFleetMatchesSerial(t *testing.T) {
	c := fleetCampaign()
	co := NewCoordinator(CoordinatorOptions{})
	defer co.Close()
	_, _ = startFleet(t, co, 2)

	var mu sync.Mutex
	workers := map[string]int{}
	r := NewRunner(context.Background(), co, RunnerOptions{
		Events: func(ev campaign.Event) {
			if ev.Type == campaign.EventFinished || ev.Type == campaign.EventFailed {
				mu.Lock()
				workers[ev.Worker]++
				mu.Unlock()
			}
		},
	})
	rep, err := r.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != len(c.Specs) {
		t.Fatalf("outcomes = %d, want %d", len(rep.Outcomes), len(c.Specs))
	}

	serial := core.SerialRunner{}
	var cfgs []core.Config
	for _, s := range c.Specs {
		cfgs = append(cfgs, s.Cfg)
	}
	want := serial.RunAll(cfgs)

	for i, out := range rep.Outcomes {
		if out.Spec.Cfg.Switch != c.Specs[i].Cfg.Switch || out.Spec.Cfg.Scenario != c.Specs[i].Cfg.Scenario {
			t.Fatalf("cell %d out of spec order: got %s/%v", i, out.Spec.Cfg.Switch, out.Spec.Cfg.Scenario)
		}
		if (out.Err == nil) != (want[i].Err == nil) {
			t.Fatalf("cell %d error mismatch: fleet=%v serial=%v", i, out.Err, want[i].Err)
		}
		if out.Err != nil {
			// Sentinel identity and message bytes must survive the HTTP hop.
			if !errors.Is(out.Err, core.ErrChainTooLong) {
				t.Fatalf("cell %d: sentinel lost over the wire: %v", i, out.Err)
			}
			if out.Err.Error() != want[i].Err.Error() {
				t.Fatalf("cell %d: error text diverged:\nfleet:  %q\nserial: %q", i, out.Err.Error(), want[i].Err.Error())
			}
			continue
		}
		got, _ := json.Marshal(out.Result)
		exp, _ := json.Marshal(want[i].Result)
		if !bytes.Equal(got, exp) {
			t.Fatalf("cell %d (%s): result bytes diverged:\nfleet:  %s\nserial: %s", i, out.Spec.ID, got, exp)
		}
	}
	if rep.Failed != 0 {
		t.Fatalf("failed = %d (chain-cap cells are not failures): %v", rep.Failed, rep.Err())
	}

	mu.Lock()
	defer mu.Unlock()
	total := 0
	for w, n := range workers {
		if !strings.HasPrefix(w, "w") {
			t.Fatalf("unexpected executor identity %q", w)
		}
		total += n
	}
	if total != len(c.Specs) {
		t.Fatalf("per-worker counts sum to %d, want %d: %v", total, len(c.Specs), workers)
	}
}

// TestRunAllOnFleet exercises the core.Runner seam the figure/table
// suites use.
func TestRunAllOnFleet(t *testing.T) {
	co := NewCoordinator(CoordinatorOptions{})
	defer co.Close()
	_, _ = startFleet(t, co, 2)
	r := NewRunner(context.Background(), co, RunnerOptions{})
	specs := []core.Config{quickCfg("vpp", core.P2P), quickCfg("ovs", core.P2P)}
	outs := r.RunAll(specs)
	if len(outs) != 2 {
		t.Fatalf("outs = %d", len(outs))
	}
	for i, out := range outs {
		if out.Err != nil || out.Result.Gbps <= 0 {
			t.Fatalf("spec %d: %+v", i, out)
		}
	}
}

// TestSharedCacheDedupesAcrossSubmissions runs the same campaign twice
// against one fleet: the second pass must be answered by the shared cache
// without re-executing any cell.
func TestSharedCacheDedupesAcrossSubmissions(t *testing.T) {
	c := fleetCampaign()
	co := NewCoordinator(CoordinatorOptions{})
	defer co.Close()
	cacheURL, _ := startFleet(t, co, 2)

	r := NewRunner(context.Background(), co, RunnerOptions{Cache: NewCacheClient(cacheURL)})
	first, err := r.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	// Every successful cell of the second pass is a cache hit (the
	// chain-cap cell errors, so it is never cached and re-runs).
	wantHits := 0
	for _, out := range first.Outcomes {
		if out.Err == nil {
			wantHits++
		}
	}
	if second.CacheHits != wantHits {
		t.Fatalf("second pass cache hits = %d, want %d", second.CacheHits, wantHits)
	}
	for i := range first.Outcomes {
		if first.Outcomes[i].Err != nil {
			continue
		}
		a, _ := json.Marshal(first.Outcomes[i].Result)
		b, _ := json.Marshal(second.Outcomes[i].Result)
		if !bytes.Equal(a, b) {
			t.Fatalf("cell %d: cached replay diverged", i)
		}
	}
}

// testCtx bounds a test's blocking calls by its -timeout deadline, so a
// hang fails the test instead of stalling the suite.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	deadline, ok := t.Deadline()
	if !ok {
		deadline = time.Now().Add(time.Minute)
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(-time.Second))
	t.Cleanup(cancel)
	return ctx
}

// waitStatus polls the coordinator until cond holds or ctx ends.
func waitStatus(ctx context.Context, t *testing.T, co *Coordinator, cond func(CoordinatorStatus) bool) {
	t.Helper()
	for !cond(co.Status()) {
		if ctx.Err() != nil {
			t.Fatalf("coordinator never reached the expected state: %+v", co.Status())
		}
		time.Sleep(time.Millisecond)
	}
}

// leaseHTTP leases up to n cells as worker over the wire.
func leaseHTTP(t *testing.T, url string, n int, worker string) []Cell {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/lease?n=%d&worker=%s", url, n, worker), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lr LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	return lr.Cells
}

// completeHTTP reports completions over the wire.
func completeHTTP(t *testing.T, url string, comps ...Completion) {
	t.Helper()
	blob, _ := json.Marshal(comps)
	resp, err := http.Post(url+"/complete", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("complete: %s", resp.Status)
	}
}

// TestLeaseExpiryReissue leases cells to a ghost that never completes
// them; after the TTL a live worker must pick them up and finish them.
func TestLeaseExpiryReissue(t *testing.T) {
	ctx := testCtx(t)
	co := NewCoordinator(CoordinatorOptions{LeaseTTL: 50 * time.Millisecond})
	defer co.Close()
	coSrv := httptest.NewServer(co)
	defer coSrv.Close()

	specs := []campaign.Spec{
		{ID: "a", Cfg: quickCfg("vpp", core.P2P)},
		{ID: "b", Cfg: quickCfg("ovs", core.P2P)},
		{ID: "c", Cfg: quickCfg("vale", core.P2P)},
	}
	outs := make([]campaign.Outcome, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = co.Execute(ctx, spec, 0)
		}()
	}
	waitStatus(ctx, t, co, func(st CoordinatorStatus) bool { return st.Pending == len(specs) })

	// The ghost worker leases everything and vanishes without completing.
	if cells := leaseHTTP(t, coSrv.URL, 8, "ghost"); len(cells) != len(specs) {
		t.Fatalf("ghost leased %d cells, want %d", len(cells), len(specs))
	}

	// A live worker joins; nothing is pending until the leases expire.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go RunWorker(wctx, WorkerOptions{
		ID: "live", Coordinator: coSrv.URL, Poll: 5 * time.Millisecond,
	})
	wg.Wait()
	if co.Reissued() == 0 {
		t.Fatal("no lease was re-issued")
	}
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("cell %d did not recover from the dead lease: %v", i, out.Err)
		}
		if out.Worker != "live" {
			t.Fatalf("cell %d executed by %q, want the live worker", i, out.Worker)
		}
	}
	st := co.Status()
	if st.Workers["ghost"] != 3 || st.Workers["live"] == 0 || st.Pending+st.Leased != 0 {
		t.Fatalf("lease accounting: %+v", st)
	}
}

// TestExecuteCancelledWhilePending withdraws a cell no worker has leased:
// Execute returns the context error at once and the cell is never
// leased afterwards.
func TestExecuteCancelledWhilePending(t *testing.T) {
	bound := testCtx(t)
	co := NewCoordinator(CoordinatorOptions{})
	coSrv := httptest.NewServer(co)
	defer coSrv.Close()

	ctx, cancel := context.WithCancel(bound)
	done := make(chan campaign.Outcome, 1)
	go func() { done <- co.Execute(ctx, campaign.Spec{ID: "x", Cfg: quickCfg("vpp", core.P2P)}, 0) }()
	waitStatus(bound, t, co, func(st CoordinatorStatus) bool { return st.Pending == 1 })
	cancel()
	select {
	case out := <-done:
		if !errors.Is(out.Err, context.Canceled) || out.Spec.ID != "x" {
			t.Fatalf("outcome = %+v, want the cancelled cell", out)
		}
	case <-bound.Done():
		t.Fatal("Execute did not return after its context was cancelled")
	}
	if cells := leaseHTTP(t, coSrv.URL, 8, "late"); len(cells) != 0 {
		t.Fatalf("withdrawn cell was leased: %+v", cells)
	}
	if st := co.Status(); st.Pending+st.Leased != 0 {
		t.Fatalf("withdrawn cell still queued: %+v", st)
	}
}

// TestDeadWorkerReissueMatchesCoreRun leases a cell to a worker that
// dies; after the TTL the cell re-issues, its result is byte-identical to
// core.Run, and the dead worker's late completions are ignored both while
// the re-issued lease is held and after the cell completed.
func TestDeadWorkerReissueMatchesCoreRun(t *testing.T) {
	ctx := testCtx(t)
	co := NewCoordinator(CoordinatorOptions{LeaseTTL: 20 * time.Millisecond})
	coSrv := httptest.NewServer(co)
	defer coSrv.Close()

	cfg := quickCfg("ovs", core.P2P)
	done := make(chan campaign.Outcome, 1)
	go func() { done <- co.Execute(ctx, campaign.Spec{ID: "c", Cfg: cfg}, 0) }()
	waitStatus(ctx, t, co, func(st CoordinatorStatus) bool { return st.Pending == 1 })
	dead := leaseHTTP(t, coSrv.URL, 1, "dead")
	if len(dead) != 1 {
		t.Fatalf("dead worker leased %d cells", len(dead))
	}

	var live []Cell
	for len(live) == 0 {
		if ctx.Err() != nil {
			t.Fatal("the dead worker's lease never expired")
		}
		time.Sleep(5 * time.Millisecond)
		live = leaseHTTP(t, coSrv.URL, 1, "live")
	}
	if live[0].Seq != dead[0].Seq || co.Reissued() != 1 {
		t.Fatalf("re-issued cell %+v (reissued %d), want seq %d once", live[0], co.Reissued(), dead[0].Seq)
	}

	bogus := Completion{Seq: dead[0].Seq, Worker: "dead", Result: &core.Result{Gbps: -1}}
	completeHTTP(t, coSrv.URL, bogus)
	if st := co.Status(); st.Leased != 1 || len(done) != 0 {
		t.Fatalf("late completion from the dead worker landed: %+v", st)
	}

	completeHTTP(t, coSrv.URL, executeCell(ctx, WorkerOptions{ID: "live"}, live[0]))
	out := <-done
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(out.Result)
	exp, _ := json.Marshal(want)
	if out.Err != nil || out.Worker != "live" || !bytes.Equal(got, exp) {
		t.Fatalf("re-issued outcome (worker %q, err %v) diverged from core.Run:\nfleet: %s\nlocal: %s", out.Worker, out.Err, got, exp)
	}

	completeHTTP(t, coSrv.URL, bogus)
	if st := co.Status(); st.Pending+st.Leased != 0 || st.Reissued != 1 {
		t.Fatalf("after completion: %+v", st)
	}
}

// FuzzCoordinatorComplete posts arbitrary /complete bodies to a
// coordinator holding one cell leased to "w" and one pending: no body may
// panic it, and only a completion naming the leased cell and its lessee
// may complete anything.
func FuzzCoordinatorComplete(f *testing.F) {
	res, err := core.Run(quickCfg("vpp", core.P2P))
	if err != nil {
		f.Fatal(err)
	}
	done, _ := json.Marshal([]Completion{{Seq: 0, Worker: "w", Result: &res, WallMs: 1.5}})
	f.Add(done)
	failed, _ := json.Marshal([]Completion{{Seq: 1, Worker: "w", ErrKind: errKindPanicked, Err: "boom", Panicked: true}})
	f.Add(failed)
	f.Add([]byte(`[{"seq":0,"worker":"x"},{"seq":-1},{"seq":1e9}]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		co := NewCoordinator(CoordinatorOptions{})
		_, leased := co.enqueue(campaign.Spec{ID: "leased"}, 0)
		_, pending := co.enqueue(campaign.Spec{ID: "pending"}, 0)
		if lr := co.lease(1, "w"); len(lr.Cells) != 1 || lr.Cells[0].Seq != 0 {
			t.Fatalf("setup lease: %+v", lr)
		}
		req := httptest.NewRequest(http.MethodPost, "/complete", bytes.NewReader(body))
		co.ServeHTTP(httptest.NewRecorder(), req)

		if len(pending.done) != 0 {
			t.Fatal("completed a cell that was never leased")
		}
		if len(leased.done) == 0 {
			return
		}
		var comps []Completion
		if err := decodeJSON(bytes.NewReader(body), &comps); err != nil {
			t.Fatalf("completed a cell from a body that does not decode: %v", err)
		}
		for _, c := range comps {
			if c.Seq == 0 && c.Worker == "w" {
				return
			}
		}
		t.Fatalf("completed the leased cell without a completion from its lessee: %s", body)
	})
}

// TestConcurrentPutSingleFlight drives N identical PUTs through the
// cache server under the race detector: exactly one hits disk, the rest
// are deduped against the in-flight write.
func TestConcurrentPutSingleFlight(t *testing.T) {
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewCacheServer(cache)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cfg := quickCfg("vpp", core.P2P)
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key, blob, err := campaign.EncodeEntry(cfg, res)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 8
	// The gate holds the single-flight leader open until every follower
	// has issued its PUT, making the dedup deterministic rather than a
	// race the test might lose.
	followersIn := make(chan struct{})
	srv.putGate = func(string) { <-followersIn }

	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodPut, ts.URL+"/cache/"+key, bytes.NewReader(blob))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs[i] = err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				errs[i] = fmt.Errorf("status %s", resp.Status)
			}
		}(i)
	}

	// Wait until all followers are parked on the flight, then release.
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.mu.Lock()
		deduped := srv.stats.Deduped
		srv.mu.Unlock()
		if deduped == writers-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deduped = %d, want %d", deduped, writers-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(followersIn)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if st.Stores != 1 || st.Deduped != writers-1 || st.Puts != writers {
		t.Fatalf("stats = %+v, want 1 store / %d deduped / %d puts", st, writers-1, writers)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d", st.Entries)
	}
	if _, ok := cache.Get(cfg); !ok {
		t.Fatal("entry did not land in the store")
	}
}

// TestPutIntegrityRejected sends a blob whose content address does not
// recompute; the server must refuse to store it.
func TestPutIntegrityRejected(t *testing.T) {
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewCacheServer(cache))
	defer ts.Close()

	cfg := quickCfg("vpp", core.P2P)
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, blob, err := campaign.EncodeEntry(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	wrongKey := strings.Repeat("ab", 32)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/cache/"+wrongKey, bytes.NewReader(blob))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("forged PUT accepted: %s", resp.Status)
	}
	if n, _ := cache.Stats(); n != 0 {
		t.Fatalf("forged entry persisted (%d entries)", n)
	}

	// Malformed keys never reach the store either.
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/cache/not-a-key", bytes.NewReader(blob))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed key accepted: %s", resp.Status)
	}
}

// TestVersionSkewRefused hands a worker a cell whose content address
// disagrees with its local canonicalization: it must refuse to run it.
func TestVersionSkewRefused(t *testing.T) {
	comp := executeCell(context.Background(), WorkerOptions{ID: "w"}, Cell{
		Seq: 0, ID: "skew",
		Key:    strings.Repeat("00", 32), // not what CacheKey(cfg) computes
		Config: quickCfg("vpp", core.P2P),
	})
	if comp.Result != nil {
		t.Fatal("skewed cell was executed")
	}
	if !strings.Contains(comp.Err, "cache-key mismatch") {
		t.Fatalf("err = %q", comp.Err)
	}
	if decoded := decodeErr(comp.ErrKind, comp.Err); !errors.Is(decoded, ErrVersionSkew) {
		t.Fatalf("sentinel lost: %v", decoded)
	}
}

// TestWireErrorRoundTrip checks every sentinel survives encode/decode
// with identical message bytes.
func TestWireErrorRoundTrip(t *testing.T) {
	cases := []error{
		core.ErrChainTooLong,
		core.ErrNoMultiCore,
		core.ErrNoRuntimeRules,
		campaign.ErrCellTimeout,
		campaign.ErrCellPanicked,
		fmt.Errorf("%w: bess supports at most 3 loopback VNFs", core.ErrChainTooLong),
		fmt.Errorf("plain failure"),
	}
	for _, in := range cases {
		kind, msg := encodeErr(in)
		out := decodeErr(kind, msg)
		if out.Error() != in.Error() {
			t.Fatalf("message bytes diverged: %q -> %q", in.Error(), out.Error())
		}
		for _, sentinel := range []error{core.ErrChainTooLong, core.ErrNoMultiCore, core.ErrNoRuntimeRules, campaign.ErrCellTimeout, campaign.ErrCellPanicked} {
			if errors.Is(in, sentinel) != errors.Is(out, sentinel) {
				t.Fatalf("%v: errors.Is(%v) flipped over the wire", in, sentinel)
			}
		}
	}
	if decodeErr("", "") != nil {
		t.Fatal("empty error decoded to non-nil")
	}
}

// TestCachePruneDeterministic fills a cache past a budget and prunes:
// eviction is oldest-first and the survivor set is stable.
func TestCachePruneDeterministic(t *testing.T) {
	dir := t.TempDir()
	cache, err := campaign.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []core.Config
	for _, sw := range []string{"vpp", "ovs", "bess", "vale"} {
		cfg := quickCfg(sw, core.P2P)
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cache.Put(cfg, res)
		cfgs = append(cfgs, cfg)
	}
	entries, bytesBefore := cache.Stats()
	if entries != 4 {
		t.Fatalf("entries = %d", entries)
	}
	st, err := cache.Prune(bytesBefore / 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned != 4 || st.Removed == 0 {
		t.Fatalf("prune stats = %+v", st)
	}
	if st.BytesAfter > bytesBefore/2 {
		t.Fatalf("still over budget: %+v", st)
	}
	if n, b := cache.Stats(); n != 4-st.Removed || b != st.BytesAfter {
		t.Fatalf("stats disagree with prune: %d entries / %d bytes vs %+v", n, b, st)
	}
	// Prune to zero clears everything and is idempotent.
	if st, err = cache.Prune(0); err != nil || st.BytesAfter != 0 {
		t.Fatalf("prune(0): %+v / %v", st, err)
	}
	for _, cfg := range cfgs {
		if _, ok := cache.Get(cfg); ok {
			t.Fatal("entry survived prune(0)")
		}
	}
	if st, err = cache.Prune(0); err != nil || st.Scanned != 0 || st.Removed != 0 {
		t.Fatalf("idempotent prune: %+v / %v", st, err)
	}
}
