package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/units"
)

// cell is one measurement of a pass: what was asked, what came back, and
// what it cost the host.
type cell struct {
	cfg   core.Config
	group string
	res   core.Result
	err   error
	// wall and cpu run from the previous cell's completion (or the pass
	// start) to this cell's, so a pass's cells sum to the pass and the
	// runner's own per-cell work (cache key, cache put, suite assembly)
	// is charged to the cell it belongs to.
	wall, cpu time.Duration
	// traced says whether this execution recorded a span.
	traced bool
}

// cellRunner is the timing wrapper every cell goes through. It implements
// core.Runner, so the figure and table suites run on it unchanged, and it
// hands cells to inner one at a time: the load is a closed loop of one
// client, a cell starts when the previous one has returned.
type cellRunner struct {
	inner core.Runner
	label func(core.Config) string
	// whole hands each batch to inner in one call and times nothing per
	// cell: the parallel and fleet passes need inner to see the batch.
	whole bool

	// tr, when set, records a span around every other cell: the cells
	// whose index plus the pass number is odd, so that two consecutive
	// passes trace every cell once and leave it plain once, and a slow
	// spell of the host hits traced and plain executions alike.
	tr           *tracer
	parent, pass int

	cells   []cell
	last    time.Time
	lastCPU time.Duration
}

var _ core.Runner = (*cellRunner)(nil)

func newCellRunner(inner core.Runner, tr *tracer, parent, pass int) *cellRunner {
	return &cellRunner{
		inner: inner, tr: tr, parent: parent, pass: pass,
		last: time.Now(), lastCPU: cpuTime(),
	}
}

// RunAll implements core.Runner.
func (r *cellRunner) RunAll(specs []core.Config) []core.SpecOutcome {
	var outs []core.SpecOutcome
	if r.whole {
		outs = r.inner.RunAll(specs)
	} else {
		outs = make([]core.SpecOutcome, len(specs))
	}
	for i, cfg := range specs {
		c := cell{cfg: cfg, group: r.label(cfg)}
		if !r.whole {
			var tr *tracer
			var attrs map[string]string
			if index := len(r.cells); r.tr != nil && (index+r.pass)%2 == 1 {
				tr, c.traced = r.tr, true
				attrs = map[string]string{
					"cell": strconv.Itoa(index), "group": c.group,
					"switch": cfg.Switch, "scenario": cfg.Scenario.String(),
				}
			}
			id := tr.begin("cell", r.parent, r.pass, attrs)
			outs[i] = r.inner.RunAll(specs[i : i+1])[0]
			tr.end(id)
			now, cpu := time.Now(), cpuTime()
			c.wall, c.cpu = now.Sub(r.last), cpu-r.lastCPU
			r.last, r.lastCPU = now, cpu
		}
		c.res, c.err = outs[i].Result, outs[i].Err
		r.cells = append(r.cells, c)
	}
	return outs
}

// run is RunAll for the benchmark's own grids: it returns the cells.
func (r *cellRunner) run(specs []core.Config) []cell {
	from := len(r.cells)
	r.RunAll(specs)
	return r.cells[from:]
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's record of the process's peak
// resident set, so that each pass has a peak of its own. Where the kernel
// offers no such reset the record keeps growing and every pass reports
// the process's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the process's peak resident set since the last reset
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// pass is one execution of a workload's whole grid.
type pass struct {
	cells  []cell
	refs   []refPoint
	err    error // a suite-level error: the whole pass failed
	wall   time.Duration
	allocs uint64  // MemStats.Mallocs delta
	bytes  uint64  // MemStats.TotalAlloc delta
	rssMB  float64 // peak resident set during the pass
}

// runPass executes w once on inner and measures it. Allocation counters
// are read once per pass, not per cell: ReadMemStats stops the world.
func runPass(w *workload, o core.RunOpts, inner core.Runner, whole bool, tr *tracer, parent, id int) pass {
	cellsSpan := tr.begin("cells", parent, id, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resetPeakRSS()
	r := newCellRunner(inner, tr, cellsSpan, id)
	r.whole = whole
	start := r.last
	refs, err := w.run(r, o)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	tr.end(cellsSpan)
	return pass{
		cells: r.cells, refs: refs, err: err, wall: wall,
		allocs: after.Mallocs - before.Mallocs,
		bytes:  after.TotalAlloc - before.TotalAlloc,
		rssMB:  peakRSSMB(),
	}
}

// counts are the totals the simulator itself counted over a pass: they
// repeat exactly on every host.
type counts struct {
	pkts      int64 // delivered in the measurement windows
	drops     int64
	copies    int64 // vhost guest-memory copies
	updates   int64 // rule installs and revokes
	evictions int64 // OvS exact-match-cache entries replaced while live
	steps     uint64
}

func (p *pass) counts() counts {
	var n counts
	for _, c := range p.cells {
		if c.err != nil {
			continue
		}
		for _, d := range c.res.Dirs {
			n.pkts += d.RxPackets
		}
		n.drops += c.res.Drops
		n.copies += c.res.HostCopies
		n.updates += c.res.RuleUpdates
		if c.cfg.Switch == "ovs" {
			n.evictions += c.res.EMCEvictions
		}
		n.steps += c.res.Steps
	}
	return n
}

// ringFrames bounds the frames queued between a wire and a measurement
// endpoint: the largest NIC descriptor ring (FastClick's 4096) and the
// largest guest ring (ptnet's 1024).
const ringFrames = 4096 + 1024

// checkCell checks one result against what must hold whatever the
// switch: traffic was delivered, every delivered frame has the configured
// size, no direction beat the line rate, and probes came back.
func checkCell(c cell) error {
	if c.err != nil {
		if expectedErr(c.err) {
			return nil
		}
		return c.err
	}
	res := c.res
	if len(res.Dirs) == 0 || res.Mpps <= 0 {
		return fmt.Errorf("%s/%v: no traffic delivered", c.cfg.Switch, c.cfg.Scenario)
	}
	for _, d := range res.Dirs {
		if d.RxBytes != d.RxPackets*int64(res.Config.FrameLen) {
			return fmt.Errorf("%s/%v: %d packets carry %d bytes at %d B frames",
				c.cfg.Switch, c.cfg.Scenario, d.RxPackets, d.RxBytes, res.Config.FrameLen)
		}
	}
	// Outside v2v every direction crosses a 10 GbE port somewhere, so a
	// window cannot deliver more than the line carries in it plus what
	// the rings behind the port held when it opened.
	if c.cfg.Scenario != core.V2V {
		line := int64(res.Config.Duration/units.TenGigE.WireTime(res.Config.FrameLen)) + ringFrames
		for _, d := range res.Dirs {
			if d.RxPackets > line {
				return fmt.Errorf("%s/%v: %d packets delivered where a 10 GbE port carries %d",
					c.cfg.Switch, c.cfg.Scenario, d.RxPackets, line)
			}
		}
	}
	if c.cfg.ProbeEvery > 0 && res.Latency.N == 0 {
		return fmt.Errorf("%s/%v: probes were sent and none returned", c.cfg.Switch, c.cfg.Scenario)
	}
	return nil
}

// digest is the output check: a SHA-256 over a fixed projection of every
// result of the pass, in cell order. It must repeat across passes and
// between timed and traced runs; simulated statistics do not depend on
// the host, so two commits that only differ in simulator speed agree on
// it too.
func (p *pass) digest() string {
	h := sha256.New()
	for _, c := range p.cells {
		digestCell(h, c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestCell writes the projection of one cell. It leaves out Steps,
// which engine work may legitimately collapse, and everything derived
// (Gbps, Mpps, busy fractions): fields a later change adds to Result do
// not move the digest.
func digestCell(h hash.Hash, c cell) {
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	if c.err != nil {
		h.Write([]byte("err:" + c.err.Error()))
		return
	}
	res := c.res
	put(uint64(len(res.Dirs)))
	for _, d := range res.Dirs {
		put(uint64(d.RxPackets))
		put(uint64(d.RxBytes))
	}
	put(uint64(res.Drops))
	put(uint64(res.HostCopies))
	put(uint64(res.RuleUpdates))
	put(uint64(res.EMCEvictions))
	put(uint64(res.Latency.N))
	put(math.Float64bits(res.Latency.MeanUs))
	put(math.Float64bits(res.Latency.P99Us))
}
