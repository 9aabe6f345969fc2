package core

import (
	"testing"

	"repro/internal/units"
)

// TestWireRunsEngage fails if the saturating generator falls back to
// sending frame by frame, or a switch to forwarding a run frame by frame.
// On a single-flow 64 B p2p cell into OvS, which forwards under line rate,
// the SUT's full RX ring drops part of the offered frames. Sent as runs,
// neither those, nor the frames on the wire, nor the ones waiting in the
// SUT's RX ring are buffers: the generator pool allocates about a hundred,
// against about 4 700 frame by frame (the 4096-deep generator TX ring kept
// full). Then every switch's 64 B p2p bidirectional cell: a switch that
// forwards runs whole keeps the generator pool at the bound below, which
// the same cell exceeds when the switch takes each run apart (bess 64,
// fastclick 288, ovs 96, snabb 264, t4p4s 640, vale 260, vpp 516 buffers).
// What remains are the runs the SUT's RX rings queue between polls —
// FastClick's and t4p4s's rings are the deepest. Runs are invisible in
// every digest by design, so this is the only test that notices they are
// gone. The pool is read at the window's last edge: once measure returns,
// its pools are released and count nothing.
func TestWireRunsEngage(t *testing.T) {
	// genAllocated runs cfg and returns how many buffers the generator
	// pool carved by the end of the window.
	genAllocated := func(cfg Config) (Result, int) {
		t.Helper()
		n := -1
		res, err := measure(cfg, 1, func(tb *testbed, w int, _ tally) {
			if w == 1 {
				n = tb.genPool.Allocated()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if n < 0 {
			t.Fatal("measure never reached the window's end")
		}
		return res, n
	}
	cfg := Config{Switch: "ovs", Scenario: P2P, FrameLen: 64,
		Warmup: 500 * units.Microsecond, Duration: 2 * units.Millisecond}
	res, n := genAllocated(cfg)
	if res.Drops == 0 {
		t.Fatal("the SUT dropped nothing: the cell does not saturate it")
	}
	if n > 512 {
		t.Fatalf("generator pool allocated %d buffers, want at most 512: frames on the wire or dropped at the SUT hold buffers", n)
	}

	// Measured: bess 34, fastclick 258, ovs 34, snabb 12, t4p4s 148,
	// vale 5, vpp 8.
	bound := map[string]int{"bess": 40, "fastclick": 272, "ovs": 40, "snabb": 16, "t4p4s": 160, "vale": 8, "vpp": 16}
	for _, sw := range Switches {
		cfg := Config{Switch: sw, Scenario: P2P, FrameLen: 64, Bidir: true,
			Warmup: 500 * units.Microsecond, Duration: 2 * units.Millisecond}
		if _, n := genAllocated(cfg); n > bound[sw] {
			t.Errorf("%s: generator pool allocated %d buffers, want at most %d: the switch forwards runs frame by frame", sw, n, bound[sw])
		}
	}
}
