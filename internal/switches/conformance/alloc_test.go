package conformance

import (
	"testing"

	"repro/internal/nic"
	"repro/internal/pkt"
	"repro/internal/switches/switchdef"
	"repro/internal/switches/switchtest"
	"repro/internal/units"
)

// TestRunForwardDoesNotAllocate: once warm, a run's whole pass through a
// switch — received on a physical port, classified, transmitted on
// another — allocates nothing, on every switch: the run stays one buffer
// from the generator's port to the egress wire.
func TestRunForwardDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for itself")
	}
	for _, name := range switchdef.Names() {
		t.Run(name, func(t *testing.T) {
			env := switchtest.Env()
			sw, err := switchdef.New(name, env)
			if err != nil {
				t.Fatal(err)
			}
			// gen → rx, the switch, tx → sink: the switch's two ports.
			gen, rx := nic.NewPort(nic.Config{Name: "gen"}), nic.NewPort(nic.Config{Name: "rx"})
			tx, sink := nic.NewPort(nic.Config{Name: "tx"}), nic.NewPort(nic.Config{Name: "sink"})
			nic.Connect(gen, rx)
			nic.Connect(tx, sink)
			info, _ := switchdef.Lookup(name)
			unpriced := info.IOMode == switchdef.InterruptMode
			sw.AddPort(&switchdef.PhysPort{Port: rx, Unpriced: unpriced})
			sw.AddPort(&switchdef.PhysPort{Port: tx, Unpriced: unpriced})
			if err := sw.CrossConnect(0, 1); err != nil {
				t.Fatal(err)
			}
			m := switchtest.Meter(env)
			tmpl := runTemplates(false)[0]
			var out [64]*pkt.Buf
			now, seq, forwarded := units.Time(0), uint64(1), 0
			pass := func() {
				b := env.Pool.Get(tmpl.Len())
				b.SetTemplate(tmpl)
				b.Seq = seq
				b.SetRun(32)
				seq += 32
				gen.SendRunAt(now, b)
				// Past the descriptor delays and every staged batch's
				// drain timer.
				for end := now + 100*units.Microsecond; now < end; now += 5 * units.Microsecond {
					sw.Poll(now, m)
					m.Drain()
					for n := sink.RxBurst(now, out[:]); n > 0; n = sink.RxBurst(now, out[:]) {
						for _, b := range out[:n] {
							forwarded += b.Run()
							b.Free()
						}
					}
				}
			}
			for i := 0; i < 50; i++ {
				pass()
			}
			if offered := int(seq - 1); forwarded != offered {
				t.Fatalf("%d of %d frames crossed the switch", forwarded, offered)
			}
			if avg := testing.AllocsPerRun(50, pass); avg != 0 {
				t.Fatalf("a run's pass through %s allocates %.2f times", name, avg)
			}
		})
	}
}
