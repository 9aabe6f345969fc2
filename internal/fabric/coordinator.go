package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/campaign"
)

// DefaultLeaseTTL is how long a leased cell may stay unreported before
// the coordinator hands it back to the pending queue for re-issue.
const DefaultLeaseTTL = 2 * time.Minute

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// LeaseTTL bounds how long a worker may hold a cell without
	// completing it; an expired lease is re-issued to the next /lease
	// call, so a dead worker's cells migrate instead of hanging the
	// campaign. 0 means DefaultLeaseTTL.
	LeaseTTL time.Duration
}

// Coordinator shards campaign cells to workers over HTTP in a
// work-stealing pull model:
//
//	POST /lease?n=N&worker=ID -> LeaseResponse (up to N cells, leased)
//	POST /complete            -> []Completion
//	GET  /status              -> CoordinatorStatus
//
// Workers pull batches at their own pace — a fast machine simply leases
// more often, which is all the load balancing a grid of independent
// deterministic cells needs. Execute is the campaign-side half: it queues
// one cell and blocks until a worker completes it. A completion only
// lands on a cell currently leased to the worker reporting it, so a late
// completion of a re-issued cell is ignored.
type Coordinator struct {
	opts CoordinatorOptions

	mu      sync.Mutex
	cells   map[int]*queuedCell // by Cell.Seq; removed on completion or abandonment
	pending []int               // FIFO of Seqs awaiting a lease (withdrawn Seqs are skipped)
	nextSeq int
	closed  bool

	reissued int64
	leases   map[string]int64 // worker -> cells leased (liveness view)
}

// queuedCell is one cell awaiting a worker.
type queuedCell struct {
	spec     campaign.Spec
	timeout  time.Duration
	leased   bool
	worker   string // lessee while leased
	deadline time.Time
	done     chan campaign.Outcome // buffered: complete never blocks
}

// NewCoordinator returns an empty coordinator; expose it with any
// http.Server (it implements http.Handler) and feed it through Execute.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	return &Coordinator{
		opts:   opts,
		cells:  make(map[int]*queuedCell),
		leases: make(map[string]int64),
	}
}

// Execute queues one cell for the fleet and blocks until a worker
// completes it; timeout is the per-cell wall-clock budget the worker
// enforces. When ctx ends first the cell is withdrawn — never leased
// again, its completion ignored — and the outcome carries ctx's error.
// Execute has the shape of campaign.Options.Execute, which is how the
// orchestrator runs cells on the fleet.
func (co *Coordinator) Execute(ctx context.Context, spec campaign.Spec, timeout time.Duration) campaign.Outcome {
	seq, c := co.enqueue(spec, timeout)
	select {
	case out := <-c.done:
		return out
	case <-ctx.Done():
	}
	co.mu.Lock()
	delete(co.cells, seq)
	co.mu.Unlock()
	select {
	case out := <-c.done: // completed while we were acquiring the lock
		return out
	default:
		return campaign.Outcome{Spec: spec, Err: ctx.Err()}
	}
}

// enqueue adds a pending cell and returns its Seq.
func (co *Coordinator) enqueue(spec campaign.Spec, timeout time.Duration) (int, *queuedCell) {
	c := &queuedCell{spec: spec, timeout: timeout, done: make(chan campaign.Outcome, 1)}
	co.mu.Lock()
	defer co.mu.Unlock()
	seq := co.nextSeq
	co.nextSeq++
	co.cells[seq] = c
	co.pending = append(co.pending, seq)
	return seq, c
}

// Close marks the coordinator as draining: once the cells in flight
// finish, idle workers are told to shut down instead of polling forever.
func (co *Coordinator) Close() {
	co.mu.Lock()
	co.closed = true
	co.mu.Unlock()
}

// Reissued counts leases that expired and were handed back for re-issue.
func (co *Coordinator) Reissued() int64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.reissued
}

// lease hands out up to n cells in queue order, first returning expired
// leases to the back of the queue.
func (co *Coordinator) lease(n int, worker string) LeaseResponse {
	now := time.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	for seq, c := range co.cells {
		if c.leased && now.After(c.deadline) {
			c.leased = false
			co.pending = append(co.pending, seq)
			co.reissued++
		}
	}
	var cells []Cell
	for len(cells) < n && len(co.pending) > 0 {
		seq := co.pending[0]
		co.pending = co.pending[1:]
		c, ok := co.cells[seq]
		if !ok {
			continue // withdrawn by its Execute call
		}
		c.leased, c.worker = true, worker
		c.deadline = now.Add(co.opts.LeaseTTL)
		cells = append(cells, Cell{
			Seq: seq, ID: c.spec.ID,
			Key:       campaign.CacheKey(c.spec.Cfg),
			Config:    c.spec.Cfg,
			TimeoutMs: c.timeout.Milliseconds(),
		})
	}
	co.leases[worker] += int64(len(cells))
	return LeaseResponse{Cells: cells, Shutdown: co.closed && len(co.cells) == 0}
}

// complete hands finished cells back to their Execute calls. Completions
// for cells not currently leased to the reporting worker — withdrawn,
// already done, reaped, re-issued elsewhere, or never issued — are
// ignored.
func (co *Coordinator) complete(comps []Completion) {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, comp := range comps {
		c, ok := co.cells[comp.Seq]
		if !ok || !c.leased || c.worker != comp.Worker {
			continue
		}
		delete(co.cells, comp.Seq)
		out := campaign.Outcome{
			Spec:     c.spec,
			Err:      decodeErr(comp.ErrKind, comp.Err),
			Cached:   comp.Cached,
			Panicked: comp.Panicked,
			Stack:    comp.Stack,
			Worker:   comp.Worker,
			Wall:     time.Duration(comp.WallMs * float64(time.Millisecond)),
		}
		if comp.Result != nil {
			out.Result = *comp.Result
		}
		c.done <- out
	}
}

// CoordinatorStatus is the /status JSON.
type CoordinatorStatus struct {
	Pending  int              `json:"pending"`
	Leased   int              `json:"leased"`
	Reissued int64            `json:"reissued"`
	Closed   bool             `json:"closed"`
	Workers  map[string]int64 `json:"workers"`
}

// Status snapshots the coordinator.
func (co *Coordinator) Status() CoordinatorStatus {
	co.mu.Lock()
	defer co.mu.Unlock()
	st := CoordinatorStatus{
		Reissued: co.reissued, Closed: co.closed,
		Workers: make(map[string]int64, len(co.leases)),
	}
	for w, n := range co.leases {
		st.Workers[w] = n
	}
	for _, c := range co.cells {
		if c.leased {
			st.Leased++
		} else {
			st.Pending++
		}
	}
	return st
}

// ServeHTTP implements http.Handler.
func (co *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/lease" && r.Method == http.MethodPost:
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		if n <= 0 {
			n = 1
		}
		worker := r.URL.Query().Get("worker")
		if worker == "" {
			worker = "anonymous"
		}
		writeJSON(w, co.lease(n, worker))
	case r.URL.Path == "/complete" && r.Method == http.MethodPost:
		var comps []Completion
		if err := decodeJSON(io.LimitReader(r.Body, maxEntryBytes), &comps); err != nil {
			http.Error(w, fmt.Sprintf("fabric: decoding completions: %v", err), http.StatusBadRequest)
			return
		}
		co.complete(comps)
		w.WriteHeader(http.StatusNoContent)
	case r.URL.Path == "/status" && r.Method == http.MethodGet:
		writeJSON(w, co.Status())
	default:
		http.NotFound(w, r)
	}
}

func decodeJSON(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }
