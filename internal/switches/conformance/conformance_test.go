package conformance

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/cost"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/switches/switchdef"
	"repro/internal/switches/switchtest"
	"repro/internal/units"

	_ "repro/internal/switches/bess"
	_ "repro/internal/switches/fastclick"
	_ "repro/internal/switches/ovs"
	_ "repro/internal/switches/snabb"
	_ "repro/internal/switches/t4p4s"
	_ "repro/internal/switches/vale"
	_ "repro/internal/switches/vpp"
)

// sut is one switch under test: two fake ports cross-connected, with a
// dedicated meter.
type sut struct {
	sw      switchdef.Switch
	env     switchdef.Env
	in, out *switchtest.FakePort
	m       *cost.Meter
	now     units.Time
	// materialize gives every pushed frame bytes of its own, so no
	// switch can reach its template.
	materialize bool
}

func newSUT(tb testing.TB, name string) *sut {
	tb.Helper()
	env := switchtest.Env()
	sw, err := switchdef.New(name, env)
	if err != nil {
		tb.Fatal(err)
	}
	s := &sut{sw: sw, env: env, in: switchtest.NewFakePort("in"), out: switchtest.NewFakePort("out")}
	sw.AddPort(s.in)
	sw.AddPort(s.out)
	if err := sw.CrossConnect(0, 1); err != nil {
		tb.Fatal(err)
	}
	s.m = switchtest.Meter(env)
	return s
}

// flowTemplate builds the pre-serialized frame image for flow index i:
// distinct source MAC/port per flow (the generators' multi-flow patching),
// destination MAC addressing switch port 1 (the testbed convention the
// t4p4s tables match on), and a second frame length on every fourth flow
// so batched length-dependent charges see mixed-size runs.
func flowTemplate(i int) *pkt.Template {
	size := 64
	if i%4 == 3 {
		size = 128
	}
	return pkt.FrameSpec{
		SrcMAC: pkt.MAC{0x02, 0xaa, 0, 0, 0, 0x01},
		DstMAC: switchdef.PortMAC(1),
		SrcIP:  [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000, FrameLen: size,
	}.Template(i)
}

// push stamps a fresh buffer with tmpl and queues it on the ingress port.
func (s *sut) push(tmpl *pkt.Template) {
	b := s.env.Pool.Get(tmpl.Len())
	b.SetTemplate(tmpl)
	if s.materialize {
		b.Bytes()
	}
	s.in.In = append(s.in.In, b)
}

// runDigest drives a fixed randomized multi-flow sequence through a fresh
// instance of the named switch and digests everything observable about the
// run: the delivered frame count, the bytes of every delivered frame in
// order, and the total simulated cycles charged. materialize sends every
// frame with bytes of its own instead of its template.
func runDigest(t *testing.T, name string, seed uint64, materialize bool) string {
	t.Helper()
	s := newSUT(t, name)
	s.materialize = materialize
	rng := sim.NewRNG(seed)
	const flows = 64
	tmpls := make([]*pkt.Template, flows)
	for i := range tmpls {
		tmpls[i] = flowTemplate(i)
	}
	h := fnv.New64a()
	delivered := 0
	for step := 0; step < 300; step++ {
		for j, n := 0, 1+rng.Intn(32); j < n; j++ {
			s.push(tmpls[rng.Intn(flows)])
		}
		s.now = switchtest.PollUntilIdle(s.sw, s.m, s.now)
		for _, b := range s.out.Out {
			h.Write(b.View())
			b.Free()
			delivered++
		}
		s.out.Out = s.out.Out[:0]
	}
	if delivered == 0 {
		t.Fatalf("%s delivered nothing", name)
	}
	return fmt.Sprintf("delivered=%d bytes=%016x cycles=%d", delivered, h.Sum64(), s.m.Total())
}

// TestMemoizedMatchesReference requires every registered switch to produce
// bit-identical observables on randomized multi-flow traffic whether its
// frames arrive template-backed, which lets OvS reuse a port's parsed flow
// key (flowKey), or materialized, so that every frame is parsed from its
// own bytes; for every switch, the pair is also a determinism check.
func TestMemoizedMatchesReference(t *testing.T) {
	for _, name := range switchdef.Names() {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				ref := runDigest(t, name, seed, true)
				memo := runDigest(t, name, seed, false)
				if ref != memo {
					t.Errorf("seed %d: template-backed run diverged from materialized\n materialized: %s\n templates:    %s", seed, ref, memo)
				}
			}
		})
	}
}

// BenchmarkSwitchPoll measures the host-side cost of pushing one 32-frame
// 64B single-flow burst through each switch's Poll (receive, classify,
// act, transmit) — the hot loop the campaign engine spends its time in.
func BenchmarkSwitchPoll(b *testing.B) {
	for _, name := range switchdef.Names() {
		b.Run(name, func(b *testing.B) {
			s := newSUT(b, name)
			tmpl := flowTemplate(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 32; j++ {
					s.push(tmpl)
				}
				s.now = switchtest.PollUntilIdle(s.sw, s.m, s.now)
				for _, ob := range s.out.Out {
					ob.Free()
				}
				s.out.Out = s.out.Out[:0]
			}
		})
	}
}
