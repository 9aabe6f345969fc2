package conformance

import (
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/switches/switchdef"
	"repro/internal/switches/switchtest"
	"repro/internal/units"
)

// TestLedgerBalances holds every switch's data-plane ledger
// (switchdef.Counters) to the frames its ports saw: every frame a switch
// received is booked forwarded or dropped, and it booked as forwarded
// exactly the frames its ports transmitted. The traffic mixes runs and
// single frames, frames a switch cannot route (a port no rule covers, a
// destination that is the sender's own MAC — a table miss on t4p4s, a
// hairpin on VALE — and, on the programmable switches, a drop rule), and
// an egress port that refuses everything on random steps; the egress is a
// physical port in one pass and a vhost-user port, which FastClick stages
// behind a drain timer, in the other.
func TestLedgerBalances(t *testing.T) {
	tmpls := append(runTemplates(true), spec(senderMAC, 64).Template(3))
	for _, name := range switchdef.Names() {
		info, err := switchdef.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []switchdef.PortKind{switchdef.PhysKind, switchdef.VhostKind} {
			t.Run(name+"/"+kind.String(), func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					ledgerPass(t, name, info.RuntimeRules, kind, tmpls, seed)
				}
			})
		}
	}
}

// ledgerPass drives one fresh instance of the named switch and checks its
// ledger against its ports.
func ledgerPass(t *testing.T, name string, programmable bool, outKind switchdef.PortKind, tmpls []*pkt.Template, seed uint64) {
	t.Helper()
	env := switchtest.Env()
	sw, err := switchdef.New(name, env)
	if err != nil {
		t.Fatal(err)
	}
	in, out, stray := switchtest.NewFakePort("in"), switchtest.NewFakePort("out"), switchtest.NewFakePort("stray")
	out.PortKind = outKind
	ports := []*switchtest.FakePort{in, out, stray}
	for _, p := range ports {
		sw.AddPort(p)
	}
	if err := sw.CrossConnect(0, 1); err != nil {
		t.Fatal(err)
	}
	if programmable {
		installDropRule(t, name, sw)
	}
	m := switchtest.Meter(env)
	rng := sim.NewRNG(seed)
	now := units.Time(0)
	for step := 0; step < 80; step++ {
		out.RejectTx = rng.Bernoulli(0.3)
		for j, n := 0, 1+rng.Intn(6); j < n; j++ {
			tmpl := tmpls[rng.Intn(len(tmpls))]
			b := env.Pool.Get(tmpl.Len())
			b.SetTemplate(tmpl)
			b.SetRun(1 + rng.Intn(40))
			if rng.Bernoulli(0.2) {
				stray.In = append(stray.In, b)
			} else {
				in.In = append(in.In, b)
			}
		}
		now = switchtest.PollUntilIdle(sw, m, now)
		if step%10 == 9 {
			// Past every staged batch's drain timer.
			now = switchtest.PollUntilIdle(sw, m, now+units.Millisecond)
		}
		for _, b := range out.Out {
			b.Free()
		}
		out.Out = out.Out[:0]
	}
	switchtest.PollUntilIdle(sw, m, now+units.Millisecond)
	var received, sent int64
	for _, p := range ports {
		received += p.RxCount
		sent += p.TxCount
	}
	c := sw.Counts()
	if c.Forwarded == 0 || c.Dropped == 0 {
		t.Fatalf("seed %d: forwarded %d, dropped %d: the traffic must exercise both", seed, c.Forwarded, c.Dropped)
	}
	if received != c.Forwarded+c.Dropped {
		t.Fatalf("seed %d: received %d frames, booked %d forwarded + %d dropped = %d",
			seed, received, c.Forwarded, c.Dropped, c.Forwarded+c.Dropped)
	}
	if c.Forwarded != sent {
		t.Fatalf("seed %d: booked %d forwarded, the ports sent %d", seed, c.Forwarded, sent)
	}
}
