package ovs

import (
	"fmt"
	"testing"

	"repro/internal/pkt"
	"repro/internal/switches/switchtest"
	"repro/internal/units"
)

// drainFreed frees and counts everything a fake port has transmitted, so
// overflow runs never pin tens of thousands of buffers.
func drainFreed(p *switchtest.FakePort) int {
	n := len(p.Out)
	for _, b := range p.Out {
		b.Free()
	}
	p.Out = p.Out[:0]
	return n
}

// emcOverflowRun drives 1.25× the EMC's capacity in distinct flows through
// a fresh switch, twice over, and digests every observable the eviction
// order can influence: tier hit counters, eviction and drop counts,
// delivered frames, and the meter's total simulated cycles.
func emcOverflowRun(t *testing.T) string {
	t.Helper()
	env := switchtest.Env()
	sw := New(env)
	in, out := switchtest.NewFakePort("in"), switchtest.NewFakePort("out")
	sw.AddPort(in)
	sw.AddPort(out)
	install(t, sw, rule(0, inPort(0), output(1)))
	m := switchtest.Meter(env)
	now := units.Time(0)
	const flows = EMCCapacity + EMCCapacity/4
	delivered := 0
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < flows; i++ {
			src := pkt.MAC{2, 1, byte(i >> 16), byte(i >> 8), byte(i), 0}
			in.In = append(in.In, switchtest.Frame(env.Pool, src, pkt.MAC{2, 0, 0, 0, 0, 2}, 64))
			if len(in.In) >= Burst {
				now = switchtest.PollUntilIdle(sw, m, now)
				delivered += drainFreed(out)
			}
		}
		now = switchtest.PollUntilIdle(sw, m, now)
		delivered += drainFreed(out)
	}
	if sw.EMCEvictions == 0 {
		t.Fatalf("no EMC evictions after %d distinct flows (capacity %d)", flows, EMCCapacity)
	}
	if live := env.Pool.Live(); live != 0 {
		t.Fatalf("leaked %d buffers", live)
	}
	return fmt.Sprintf("emc=%d mega=%d slow=%d evict=%d fwd=%d drop=%d delivered=%d cycles=%d",
		sw.EMCHits, sw.MegaHits, sw.SlowHits, sw.EMCEvictions,
		sw.Forwarded, sw.Dropped, delivered, m.Total())
}

// TestEMCOverflowEvictionDeterministic is the clock-hand regression: the
// map-backed EMC this cache replaced evicted by randomized map iteration,
// so overflowing workloads produced run-dependent hit counts and timing.
// Two identical overflow runs must now agree on every observable.
func TestEMCOverflowEvictionDeterministic(t *testing.T) {
	first := emcOverflowRun(t)
	second := emcOverflowRun(t)
	if first != second {
		t.Fatalf("EMC overflow run not reproducible:\n run 1: %s\n run 2: %s", first, second)
	}
}
