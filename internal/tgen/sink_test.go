package tgen

import (
	"fmt"
	"testing"

	"repro/internal/nic"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

// polledSink is the sink as MoonGen's RX thread runs it: a scheduler task
// that polls its port every SinkPollInterval and drains the whole ring,
// counting, capturing and sampling probes frame by frame. It is the
// reference Sink must reproduce without polling.
type polledSink struct {
	port    *nic.Port
	Rx      stats.Counter
	Hist    stats.Histogram
	Capture func(at units.Time, b *pkt.Buf)

	scratch [256]*pkt.Buf
}

func (k *polledSink) Step(now units.Time) (units.Time, bool) {
	burst := &k.scratch
	for {
		n := k.port.RxBurst(now, burst[:])
		if n == 0 {
			break
		}
		for _, b := range burst[:n] {
			k.Rx.Add(1, int64(b.Len()))
			if k.Capture != nil {
				k.Capture(b.Ingress, b)
			}
			if b.Probe {
				if _, tx, ok := pkt.ProbeInfo(b); ok && tx > 0 {
					k.Hist.Add(b.Ingress - tx)
				} else if b.TxStamp > 0 {
					k.Hist.Add(b.Ingress - b.TxStamp)
				}
			}
			b.Free()
		}
		if n < len(burst) {
			break
		}
	}
	return now + SinkPollInterval, true
}

// sinkSend is one scripted transmission toward the sink: n frames of len
// bytes sent at at, as a run when n > 1; a probe is one frame, carrying its
// send time in its payload when stamped (otherwise the NIC's TX stamp
// is its reference).
type sinkSend struct {
	at      units.Time
	n, len  int
	probe   bool
	stamped bool
}

// sinkScript is a whole sink experiment: the wire, the transmissions, the
// RunUntil deadlines the state is read at, and the cut after which both
// histograms are reset (-1: none).
type sinkScript struct {
	rate                 units.BitRate
	rxRing               int
	rxLatency, txLatency units.Time
	sends                []sinkSend
	cuts                 []units.Time
	reset                int
}

// sinkState is everything a reader can see of a sink between RunUntil calls.
type sinkState struct {
	rx    stats.Counter
	hist  stats.Histogram
	steps uint64
	seen  []capturedFrame
}

type capturedFrame struct {
	at, ingress units.Time
	seq         uint64
	len         int
	probe       bool
}

// sinkWorld is one scheduler running a script into one sink, polled or not.
type sinkWorld struct {
	sched  *sim.Scheduler
	tx, rx *nic.Port
	sink   *Sink // nil when polled
	state  func() sinkState
	reset  func()
}

func newSinkWorld(sc sinkScript, polled bool) *sinkWorld {
	w := &sinkWorld{sched: sim.NewScheduler()}
	w.tx = nic.NewPort(nic.Config{Name: "tx", Rate: sc.rate, TxRing: 4096, HWTimestamp: true, TxLatency: sc.txLatency})
	w.rx = nic.NewPort(nic.Config{Name: "rx", Rate: sc.rate, RxRing: sc.rxRing, RxLatency: sc.rxLatency})
	nic.Connect(w.tx, w.rx)
	pool := pkt.NewPool(2048)
	tmpls := map[int]*pkt.Template{}
	spec := pkt.FrameSpec{SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2}}
	var seq uint64
	next := 0
	sends := sc.sends
	script := w.sched.Register("script", sim.StepFunc(func(now units.Time) (units.Time, bool) {
		for ; next < len(sends) && sends[next].at <= now; next++ {
			s := sends[next]
			t := tmpls[s.len]
			if t == nil {
				spec.FrameLen = s.len
				t = spec.Template(0)
				tmpls[s.len] = t
			}
			b := pool.Get(s.len)
			b.SetTemplate(t)
			b.Seq = seq + 1
			switch {
			case s.probe:
				tx := units.Time(0)
				if s.stamped {
					tx = now
				}
				pkt.MarkProbe(b, seq+1, tx)
			case s.n > 1:
				if n := min(s.n, w.tx.TxFree(now)); n > 0 {
					w.tx.SendRunAt(now, b, n)
					seq += uint64(n)
				} else {
					b.Free()
				}
				continue
			}
			if w.tx.SendAt(now, b) {
				seq++
			} else {
				b.Free()
			}
		}
		if next == len(sends) {
			return 0, false
		}
		return sends[next].at, true
	}))
	if len(sends) > 0 {
		w.sched.WakeAt(script, sends[0].at)
	}
	var seen []capturedFrame
	capture := func(at units.Time, b *pkt.Buf) {
		seen = append(seen, capturedFrame{at, b.Ingress, b.Seq, b.Len(), b.Probe})
	}
	if polled {
		k := &polledSink{port: w.rx, Capture: capture}
		w.sched.WakeAt(w.sched.Register("sink", k), 0)
		w.state = func() sinkState { return sinkState{k.Rx, k.Hist, w.sched.Steps(), seen} }
		w.reset = k.Hist.Reset
	} else {
		k := NewSink(w.sched, "sink", w.rx)
		w.sink = k
		k.Capture = capture
		k.Start(0)
		w.state = func() sinkState { return sinkState{k.Rx, k.Hist, w.sched.Steps(), seen} }
		w.reset = k.Hist.Reset
	}
	return w
}

// checkSinkScript runs sc into the polled reference and into Sink and
// requires every reader-visible value to agree at every cut: counts,
// histogram, scheduler steps and the capture so far. The reference's ring
// must never have dropped a frame, the premise of draining at arrival.
func checkSinkScript(t testing.TB, sc sinkScript) {
	t.Helper()
	ref, got := newSinkWorld(sc, true), newSinkWorld(sc, false)
	for i, cut := range sc.cuts {
		ref.sched.RunUntil(cut)
		got.sched.RunUntil(cut)
		if err := sameSinkState(ref.state(), got.state()); err != nil {
			t.Fatalf("cut %d at %v (%+v): %v", i, cut, sc, err)
		}
		pending, due := got.sink.Pending()
		if sent := got.tx.Stats.TxPackets; sent != got.sink.Rx.Packets+pending || due <= cut {
			t.Fatalf("cut %d at %v (%+v): %d frames sent, %d drained, %d pending from %v",
				i, cut, sc, sent, got.sink.Rx.Packets, pending, due)
		}
		if i == sc.reset {
			ref.reset()
			got.reset()
		}
	}
	if d := ref.rx.Stats.RxDropsFull; d != 0 {
		t.Fatalf("the polled reference dropped %d frames on a %d-deep ring (%+v)", d, sc.rxRing, sc)
	}
}

func sameSinkState(want, got sinkState) error {
	switch {
	case got.rx != want.rx:
		return fmt.Errorf("rx %+v, polled %+v", got.rx, want.rx)
	case got.hist != want.hist:
		return fmt.Errorf("%d probe samples (sum %v), polled %d (sum %v)",
			got.hist.N(), got.hist.Mean(), want.hist.N(), want.hist.Mean())
	case got.steps != want.steps:
		return fmt.Errorf("steps %d, polled %d", got.steps, want.steps)
	case len(got.seen) != len(want.seen):
		return fmt.Errorf("%d frames captured, polled %d", len(got.seen), len(want.seen))
	}
	for i := range got.seen {
		if got.seen[i] != want.seen[i] {
			return fmt.Errorf("capture %d: %+v, polled %+v", i, got.seen[i], want.seen[i])
		}
	}
	return nil
}

// minSinkRing is the shallowest RX ring NewSink accepts at 10 GbE.
var minSinkRing = int((SinkPollInterval+units.TenGigE.WireTime(64)-1)/units.TenGigE.WireTime(64)) + 1

// TestSinkMatchesPolledReference: scripted arrivals — single frames, runs
// spanning polls and deadlines, probes of both stamp kinds, frames made
// visible exactly on a poll and drained exactly on a deadline, a probe
// whose drain instant follows the histogram reset its arrival precedes —
// read at every cut as the polled sink gives them.
func TestSinkMatchesPolledReference(t *testing.T) {
	const grid = SinkPollInterval
	wire := units.TenGigE.WireTime(64)
	// onGrid sends a 64-byte frame from an idle wire so that it becomes
	// visible exactly at poll k, given the script's RX latency.
	onGrid := func(k int, rxLat units.Time, probe bool) sinkSend {
		return sinkSend{at: units.Time(k)*grid - rxLat - wire, n: 1, len: 64, probe: probe}
	}
	const lat = 700 * units.Nanosecond
	for _, tc := range []struct {
		name string
		sc   sinkScript
	}{
		{"single-frames-on-grid", sinkScript{
			rxLatency: lat, txLatency: nic.NoLatency, reset: -1,
			sends: []sinkSend{onGrid(2, lat, false), onGrid(4, lat, false), onGrid(5, lat, true)},
			// Polls 2 and 4 drain at their deadlines; poll 5's frame waits
			// one picosecond past its deadline.
			cuts: []units.Time{2 * grid, 4*grid - 1, 4 * grid, 5*grid - 1, 5 * grid, 6 * grid},
		}},
		{"probe-across-reset", sinkScript{
			rxLatency: lat, txLatency: nic.NoLatency, reset: 0,
			// The first probe is drained at poll 3, before the reset after
			// the cut there; the second arrives before it but is drained at
			// poll 4, after it, so only its sample survives.
			sends: []sinkSend{
				onGrid(3, lat, true),
				{at: 3*grid - lat - 10*units.Nanosecond, n: 1, len: 64, probe: true, stamped: true},
			},
			cuts: []units.Time{3 * grid, 4*grid - 1, 5 * grid},
		}},
		{"runs-across-polls-and-cuts", sinkScript{
			rxLatency: lat, reset: 1,
			sends: []sinkSend{
				{at: 100 * units.Nanosecond, n: 200, len: 64},
				{at: 300 * units.Nanosecond, n: 1, len: 64, probe: true, stamped: true},
				{at: 300 * units.Nanosecond, n: 90, len: 128},
				{at: 30 * units.Microsecond, n: 3, len: 1518},
				{at: 31 * units.Microsecond, n: 1, len: 1518, probe: true},
			},
			cuts: []units.Time{5 * grid, 7*grid + 1, 10 * grid, 31 * units.Microsecond, 16 * grid, 40 * units.Microsecond},
		}},
		{"shallowest-ring-saturated", sinkScript{
			rxRing: minSinkRing, rxLatency: nic.NoLatency, reset: 2,
			sends: []sinkSend{
				{at: 0, n: 1000, len: 64},
				{at: 5 * units.Microsecond, n: 1, len: 64, probe: true},
				{at: 5 * units.Microsecond, n: 2000, len: 64},
			},
			cuts: []units.Time{grid, 3*grid - 1, 20 * grid, 100 * grid, 300 * grid},
		}},
		{"idle-start-and-long-gaps", sinkScript{
			rxLatency: lat, reset: -1,
			sends: []sinkSend{
				{at: 50 * units.Microsecond, n: 1, len: 64},
				{at: 400 * units.Microsecond, n: 5, len: 64},
			},
			cuts: []units.Time{0, grid - 1, 49 * units.Microsecond, 52 * units.Microsecond, 450 * units.Microsecond},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.sc
			if sc.rate == 0 {
				sc.rate = units.TenGigE
			}
			if sc.rxRing == 0 {
				sc.rxRing = 4096
			}
			checkSinkScript(t, sc)
		})
	}
}

// TestNewSinkRejectsShallowRing: a ring one descriptor short of a poll
// interval's line-rate arrivals could have dropped under the polled sink,
// so binding a sink to it panics.
func TestNewSinkRejectsShallowRing(t *testing.T) {
	for _, ring := range []int{minSinkRing - 1, minSinkRing} {
		tx := nic.NewPort(nic.Config{Name: "tx"})
		rx := nic.NewPort(nic.Config{Name: "rx", RxRing: ring})
		nic.Connect(tx, rx)
		func() {
			defer func() {
				if r := recover(); (r != nil) != (ring < minSinkRing) {
					t.Fatalf("ring %d (minimum %d): panic %v", ring, minSinkRing, r)
				}
			}()
			NewSink(sim.NewScheduler(), "sink", rx)
		}()
	}
}

// decodeSinkScript reads a sink experiment from fuzz bytes: a header byte
// picks the wire, then each two-byte op sends, cuts, resets or idles at a
// time cursor that only moves forward. Aligned sends and cuts land exactly
// on polls, where an off-by-one would show.
func decodeSinkScript(data []byte) sinkScript {
	sc := sinkScript{rate: units.TenGigE, rxRing: 4096, reset: -1}
	if len(data) > 0 {
		h := data[0]
		data = data[1:]
		sc.rxLatency = []units.Time{nic.NoLatency, 0, 700 * units.Nanosecond, 2 * units.Microsecond}[h&3]
		sc.txLatency = []units.Time{nic.NoLatency, 0}[h>>2&1]
		if h>>3&1 == 1 {
			sc.rate = 25 * units.Gbps
		}
		if h>>4&1 == 1 {
			w := sc.rate.WireTime(64)
			sc.rxRing = int((SinkPollInterval+w-1)/w) + 1
		}
	}
	rxLat := max(sc.rxLatency, 0)
	lens := []int{64, 65, 256, 1518}
	var t units.Time
	for ; len(data) >= 2 && len(sc.sends) < 200 && len(sc.cuts) < 40; data = data[2:] {
		op, arg := data[0], data[1]
		switch op % 8 {
		case 0, 1:
			sc.sends = append(sc.sends, sinkSend{at: t, n: 1, len: lens[arg%4]})
			t += units.Time(arg/4) * 20 * units.Nanosecond
		case 2:
			// Visible exactly on a poll if the wire is idle.
			l := lens[arg%4]
			d := rxLat + sc.rate.WireTime(l)
			at := t + d
			at += (SinkPollInterval-at%SinkPollInterval)%SinkPollInterval - d
			sc.sends = append(sc.sends, sinkSend{at: at, n: 1, len: l, probe: arg&4 != 0})
			t = at
		case 3:
			sc.sends = append(sc.sends, sinkSend{at: t, n: 1, len: lens[arg%4], probe: true, stamped: arg&4 != 0})
		case 4:
			sc.sends = append(sc.sends, sinkSend{at: t, n: 2 + int(arg%64), len: lens[arg>>6]})
		case 5:
			// A cut on the next poll, a picosecond either side of it, or
			// at the cursor.
			c := t + (SinkPollInterval-t%SinkPollInterval)%SinkPollInterval
			c += []units.Time{0, -1, 1, t - c}[arg%4]
			c = max(c, t)
			sc.cuts = append(sc.cuts, c)
			t = c
		case 6:
			if sc.reset < 0 && len(sc.cuts) > 0 {
				sc.reset = len(sc.cuts) - 1
			}
		case 7:
			t += units.Time(arg) * 100 * units.Nanosecond
		}
	}
	sc.cuts = append(sc.cuts, t+100*units.Microsecond)
	return sc
}

// FuzzSinkDrain: any scripted mix of frames, runs, probes, polls-aligned
// arrivals, deadline cuts and a histogram reset reads, at every cut, as the
// polled sink gives it.
func FuzzSinkDrain(f *testing.F) {
	f.Add([]byte{0x02, 0, 10, 2, 4, 5, 0, 3, 4, 5, 1, 6, 0, 4, 200, 5, 2, 7, 50, 2, 0, 5, 0})
	f.Add([]byte{0x13, 4, 63, 4, 127, 5, 1, 3, 0, 4, 255, 5, 0, 7, 255, 5, 3})
	f.Add([]byte{0x0e, 2, 0, 2, 5, 5, 0, 6, 0, 2, 4, 5, 1, 5, 0, 0, 255, 1, 1, 5, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSinkScript(t, decodeSinkScript(data))
	})
}
