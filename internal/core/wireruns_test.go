package core

import (
	"testing"

	"repro/internal/units"
)

// TestWireRunsEngage fails if the saturating generator falls back to
// sending frame by frame. On a single-flow 64 B p2p cell into OvS, which
// forwards under line rate, the SUT's full RX ring drops part of the
// offered frames. Sent as runs, neither those, nor the frames on the wire,
// nor the ones waiting in the SUT's RX ring are buffers: the generator
// pool allocates about a hundred, against about 4 700 frame by frame (the
// 4096-deep generator TX ring kept full). Runs are invisible in every
// digest by design, so this is the only test that notices they are gone.
func TestWireRunsEngage(t *testing.T) {
	cfg := Config{Switch: "ovs", Scenario: P2P, FrameLen: 64,
		Warmup: 500 * units.Microsecond, Duration: 2 * units.Millisecond}
	m, err := warmUp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb := m.tb
	tb.sched.RunUntil(tb.cfg.Warmup + tb.cfg.Duration)
	res, err := m.collect()
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops == 0 {
		t.Fatal("the SUT dropped nothing: the cell does not saturate it")
	}
	if n := tb.genPool.Allocated(); n > 512 {
		t.Fatalf("generator pool allocated %d buffers, want at most 512: frames on the wire or dropped at the SUT hold buffers", n)
	}
}
