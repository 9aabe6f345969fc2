package ovs

import (
	"encoding/binary"
	"testing"

	"repro/internal/pkt"
	"repro/internal/switches/switchtest"
	"repro/internal/units"
)

// keySpec is the frame the flow-key tests send, one template per flow.
var keySpec = pkt.FrameSpec{
	SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
	SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
	SrcPort: 1000, DstPort: 2000, FrameLen: 64,
}

// TestFlowKeyMatchesExtract holds flowKey, and the per-port cache behind
// it, to a fresh extractKey + pack + keyHash of every buffer: on one port
// alternating between templates, on two ports sharing a template, on a
// VLAN-tagged template, on a materialized buffer whose bytes were edited
// after it left its template, and on a buffer cut short of its template's
// length.
func TestFlowKeyMatchesExtract(t *testing.T) {
	sw, _, env := newSUT(2)
	a, b := keySpec.Template(0), keySpec.Template(1)
	img := a.Image()
	tagged := make([]byte, 0, len(img)+pkt.VLANTagLen)
	tagged = append(tagged, img[:12]...)
	tagged = binary.BigEndian.AppendUint16(tagged, pkt.EtherTypeVLAN)
	tagged = binary.BigEndian.AppendUint16(tagged, 10)
	vlan := pkt.NewTemplate(append(tagged, img[12:]...))
	buf := func(tm *pkt.Template) *pkt.Buf {
		x := env.Pool.Get(tm.Len())
		x.SetTemplate(tm)
		return x
	}
	edited := buf(a)
	pkt.SetEthDst(edited.Bytes(), pkt.MAC{2, 0, 0, 0, 0, 9})
	short := buf(b)
	short.SetLen(pkt.EthHdrLen + 8) // no room for the IPv4 header
	steps := []struct {
		port int
		b    *pkt.Buf
	}{
		{0, buf(a)}, {0, buf(b)}, {0, buf(a)}, {0, buf(a)}, {0, buf(b)},
		{1, buf(b)}, {0, buf(b)}, {1, buf(b)},
		{0, buf(vlan)}, {0, buf(vlan)},
		{0, buf(a)}, {0, edited}, {0, buf(a)},
		{0, buf(b)}, {0, short}, {0, buf(b)},
	}
	for i, s := range steps {
		key := extractKey(s.b, s.port)
		want := key.pack()
		got, h := sw.flowKey(s.b, s.port)
		if *got != want || h != keyHash(&want) {
			t.Fatalf("step %d (port %d): flowKey = %x (hash %#x), extractKey = %x (hash %#x)",
				i, s.port, *got, h, want, keyHash(&want))
		}
		s.b.Free()
	}
	if live := env.Pool.Live(); live != 0 {
		t.Fatalf("leaked %d buffers", live)
	}
}

// TestPollNewTemplatesDoesNotAllocate: once warm, a poll in which every
// frame carries a template its port has never seen — a key-cache miss
// per frame, and an EMC that fills and then evicts — allocates nothing.
func TestPollNewTemplatesDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for itself")
	}
	const runs = 50
	sw, fps, env := newSUT(2)
	install(t, sw, rule(0, inPort(0), output(1)))
	m := switchtest.Meter(env)
	// Two warm-up polls, AllocsPerRun's own and the measured ones.
	tmpls := make([]*pkt.Template, (runs+3)*Burst)
	for i := range tmpls {
		tmpls[i] = keySpec.Template(i)
	}
	now := units.Time(0)
	poll := func() {
		for _, tm := range tmpls[:Burst] {
			b := env.Pool.Get(tm.Len())
			b.SetTemplate(tm)
			fps[0].In = append(fps[0].In, b)
		}
		tmpls = tmpls[Burst:]
		sw.Poll(now, m)
		now += m.Drain() + units.Nanosecond
		for _, b := range fps[1].Out {
			b.Free()
		}
		fps[1].Out = fps[1].Out[:0]
	}
	poll() // warm the pool, the megaflow cache and the staging slices
	poll()
	if avg := testing.AllocsPerRun(runs, poll); avg != 0 {
		t.Fatalf("a poll of %d new templates allocates %.2f times", Burst, avg)
	}
	if sw.Forwarded != (runs+3)*Burst {
		t.Fatalf("forwarded %d of %d frames", sw.Forwarded, (runs+3)*Burst)
	}
}
