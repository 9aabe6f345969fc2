// Package cost models CPU time. Switch data planes run real Go code over
// real data structures, but the *simulated* time they consume is accounted
// here: every primitive operation (poll, descriptor ring access, byte copy,
// hash lookup, interrupt, syscall) charges cycles to a Meter, and the
// simulated core advances its clock by the drained total.
//
// The primitive prices below are shared by every switch; per-switch pipeline
// constants live in the switch packages and are calibrated against the
// paper's measured throughputs (see DESIGN.md §7).
package cost

import (
	"repro/internal/sim"
	"repro/internal/units"
)

// ModelVersion identifies the calibrated cost-model generation. Bump it
// whenever any cycle price here or in a switch package changes: cached
// campaign results are keyed on it, so a bump invalidates every cached
// measurement taken under the old prices.
const ModelVersion = "conext19-cal1"

// Model holds the primitive operation prices for one simulated machine.
type Model struct {
	Freq units.Freq

	// IdlePoll is an empty poll-mode iteration (DPDK rx_burst returning 0).
	IdlePoll units.Cycles

	// RxBurst/TxBurst are the fixed per-burst costs of a PMD rx/tx call;
	// RxPkt/TxPkt the per-descriptor costs.
	RxBurst, RxPkt units.Cycles
	TxBurst, TxPkt units.Cycles

	// CopyBase + CopyPerByteMilli/1000·len is the price of one packet
	// copy (the vhost-user tax; ptnet avoids it).
	CopyBase         units.Cycles
	CopyPerByteMilli units.Cycles // milli-cycles per byte

	// VhostDesc is the per-packet descriptor/avail/used-ring handling on
	// each virtio crossing, beyond the data copy itself.
	VhostDesc units.Cycles

	// PtnetDesc is the per-packet descriptor cost of a zero-copy netmap
	// passthrough crossing.
	PtnetDesc units.Cycles

	// DMAPerByteMilli prices the per-byte share of moving a frame across
	// a physical port (descriptor DMA, cache interaction), in
	// milli-cycles per byte.
	DMAPerByteMilli units.Cycles

	// HashLookup is one hash-table probe (EMC, MAC table, flow table).
	HashLookup units.Cycles

	// Interrupt and Syscall price netmap-style kernel I/O (VALE).
	Interrupt units.Cycles
	Syscall   units.Cycles

	// Multi-core dispatch prices (internal/multicore). None of these is
	// reachable on a single-core run, so they live outside the
	// ModelVersion calibration envelope.
	//
	// HandoffPush/HandoffPop price one packet crossing an inter-core
	// handoff ring (RTC pipeline mode): the producer's store + doorbell
	// share, and the consumer's cache-line pull of descriptor + header.
	HandoffPush, HandoffPop units.Cycles
	// SteerPerPkt is the RX/steering core's per-packet share of hashing
	// a frame and picking its worker ring.
	SteerPerPkt units.Cycles
	// RemoteTouch + RemotePerByteMilli/1000·len surcharges every frame a
	// core touches on the far socket (device rings and packet memory are
	// homed on socket 0 — see numa.go).
	RemoteTouch        units.Cycles
	RemotePerByteMilli units.Cycles // milli-cycles per byte
}

// Default returns the testbed's machine model: a 2.6 GHz Haswell-class core
// with DPDK-era primitive costs.
func Default() *Model {
	return &Model{
		Freq:             units.DefaultCPUFreq,
		IdlePoll:         60,
		RxBurst:          30,
		RxPkt:            14,
		TxBurst:          30,
		TxPkt:            14,
		CopyBase:         20,
		CopyPerByteMilli: 220, // 0.22 cycles/B ≈ 11 GB/s effective small-copy bandwidth
		VhostDesc:        60,
		PtnetDesc:        10,
		DMAPerByteMilli:  100, // 0.1 cycles/B
		HashLookup:       28,
		Interrupt:        2600, // ~1 us wakeup path
		Syscall:          1300, // ~0.5 us

		HandoffPush:        40, // SPSC enqueue + line ownership transfer
		HandoffPop:         45, // dequeue + remote-dirty line pull
		SteerPerPkt:        25, // RSS hash over the 5-tuple + ring pick
		RemoteTouch:        60, // cross-socket descriptor/header fill
		RemotePerByteMilli: 80, // 0.08 cycles/B of remote payload traffic
	}
}

// CopyCost returns the price of copying n bytes.
func (m *Model) CopyCost(n int) units.Cycles {
	return m.CopyBase + m.CopyPerByteMilli*units.Cycles(n)/1000
}

// Modulation is a slow square-wave efficiency modulation: phases of
// degraded throughput (flow revalidation sweeps, trace-cache churn, buffer
// reclamation) that a saturated R⁺ measurement averages over but that a
// 0.99·R⁺ constant-bit-rate run collides with, producing the paper's
// congested-tail latencies (Table 3). During HighDur every charge is
// scaled by HighFactor (>1), then by LowFactor (<1) for LowDur.
type Modulation struct {
	HighFactor, LowFactor float64
	HighDur, LowDur       units.Time
}

// Factor returns the multiplier in effect at time now.
func (mo Modulation) Factor(now units.Time) float64 {
	period := mo.HighDur + mo.LowDur
	if period <= 0 {
		return 1
	}
	if now%period < mo.HighDur {
		return mo.HighFactor
	}
	return mo.LowFactor
}

// Meter accumulates cycles consumed by one simulated core between
// scheduler steps.
type Meter struct {
	Model *Model
	RNG   *sim.RNG
	acc   units.Cycles
	total units.Cycles
}

// NewMeter returns a meter over the given model and random stream.
func NewMeter(m *Model, rng *sim.RNG) *Meter {
	return &Meter{Model: m, RNG: rng}
}

// Charge adds c cycles.
func (mt *Meter) Charge(c units.Cycles) {
	if c < 0 {
		panic("cost: negative charge")
	}
	mt.acc += c
}

// ChargeNoisy adds c cycles plus a one-sided noise term: c·frac·Exp(1).
// Exponential noise gives the heavy(ish) tail that distinguishes unstable
// pipelines (t4p4s) from stable ones (VPP) in the paper's 0.99·R⁺ rows.
func (mt *Meter) ChargeNoisy(c units.Cycles, frac float64) {
	n := c
	if frac > 0 && mt.RNG != nil {
		n += units.Cycles(mt.RNG.TruncExp(float64(c) * frac))
	}
	mt.Charge(n)
}

// ChargeNoisyBatch adds n frames' worth of ChargeNoisy(c, frac), consuming
// the RNG stream exactly as n individual calls would: one TruncExp draw per
// frame, each truncated to whole cycles *before* summing (the per-frame
// truncation is what makes the total bit-identical to the per-frame path).
// Only the Charge call count is amortized.
func (mt *Meter) ChargeNoisyBatch(c units.Cycles, frac float64, n int) {
	if n <= 0 {
		return
	}
	if frac <= 0 || mt.RNG == nil {
		mt.Charge(c * units.Cycles(n))
		return
	}
	scale := float64(c) * frac
	total := c * units.Cycles(n)
	for i := 0; i < n; i++ {
		total += units.Cycles(mt.RNG.TruncExp(scale))
	}
	mt.Charge(total)
}

// ScaleBy applies a modulation factor sampled earlier with Factor(now) to a
// cycle count. Hot paths hoist the Factor call out of per-frame loops (now
// is constant within one poll) and apply the cached factor here.
func ScaleBy(f float64, c units.Cycles) units.Cycles {
	if f == 1 || f == 0 {
		return c
	}
	return units.Cycles(float64(c) * f)
}

// Stall charges a wall-clock duration (converted to cycles), used for
// modelled pauses such as OvS revalidation or LuaJIT trace compilation.
func (mt *Meter) Stall(d units.Time) {
	mt.Charge(mt.Model.Freq.CyclesIn(d))
}

// Book adds c cycles to Total without draining them: the cost of steps a
// core simulated arithmetically instead of charging them one by one.
func (mt *Meter) Book(c units.Cycles) { mt.total += c }

// Pending returns the not-yet-drained cycles.
func (mt *Meter) Pending() units.Cycles { return mt.acc }

// Total returns all cycles ever charged.
func (mt *Meter) Total() units.Cycles { return mt.total }

// Drain converts the accumulated cycles to simulated time and resets the
// accumulator.
func (mt *Meter) Drain() units.Time {
	c := mt.acc
	mt.acc = 0
	mt.total += c
	return mt.Model.Freq.Duration(c)
}
