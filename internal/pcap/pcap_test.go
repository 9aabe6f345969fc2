package pcap

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/pkt"
	"repro/internal/units"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pool := pkt.NewPool(2048)
	for i := 0; i < 5; i++ {
		b := pool.Get(64 + i*10)
		pkt.FrameSpec{
			SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
			FrameLen: 64 + i*10,
		}.Build(b)
		b.Bytes()[60] = byte(i)
		if err := w.WritePacket(units.Time(i)*units.Millisecond, b); err != nil {
			t.Fatal(err)
		}
		b.Free()
	}
	if w.Count() != 5 {
		t.Fatalf("count = %d", w.Count())
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("records = %d", len(recs))
	}
	for i, r := range recs {
		if len(r.Data) != 64+i*10 {
			t.Errorf("record %d length = %d", i, len(r.Data))
		}
		if r.Data[60] != byte(i) {
			t.Errorf("record %d payload corrupted", i)
		}
		if r.At != units.Time(i)*units.Millisecond {
			t.Errorf("record %d at %v", i, r.At)
		}
	}
}

func TestGlobalHeaderFields(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf); err != nil {
		t.Fatal(err)
	}
	h := buf.Bytes()
	if len(h) != 24 {
		t.Fatalf("header length = %d", len(h))
	}
	if binary.LittleEndian.Uint32(h[0:]) != 0xa1b2c3d4 {
		t.Fatal("bad magic")
	}
	if binary.LittleEndian.Uint16(h[4:]) != 2 || binary.LittleEndian.Uint16(h[6:]) != 4 {
		t.Fatal("bad version")
	}
	if binary.LittleEndian.Uint32(h[20:]) != 1 {
		t.Fatal("link type not Ethernet")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a pcap file, definitely"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestPropertyRoundTripPayloads(t *testing.T) {
	f := func(payloads [][]byte) bool {
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		pool := pkt.NewPool(70000)
		var want [][]byte
		for _, p := range payloads {
			if len(p) < 14 {
				continue // runt frames are not valid Ethernet
			}
			if len(p) > 65535 {
				p = p[:65535]
			}
			b := pool.Get(len(p))
			copy(b.Bytes(), p)
			if err := w.WritePacket(units.Second, b); err != nil {
				return false
			}
			b.Free()
			want = append(want, append([]byte(nil), p...))
		}
		recs, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(recs) != len(want) {
			return false
		}
		for i := range recs {
			if !bytes.Equal(recs[i].Data, want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestLazyProbeRecordsItsStamp: a template-backed probe is recorded with
// the bytes materializing it would give — its stamp included — and stays
// template-backed, while the template-backed frames around it are recorded
// as their images.
func TestLazyProbeRecordsItsStamp(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pool := pkt.NewPool(2048)
	spec := pkt.FrameSpec{SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2}, FrameLen: 128}
	tmpl := spec.Template(0)
	var want [][]byte
	for i, tx := range []units.Time{-1, 0, 7 * units.Microsecond} {
		b := pool.Get(128)
		b.SetTemplate(tmpl)
		if tx >= 0 {
			pkt.MarkProbe(b, uint64(i), tx)
			if tx == 0 {
				b.TxStamp = 9 * units.Microsecond // the NIC stamps it on the wire
			}
		}
		if err := w.WritePacket(units.Second, b); err != nil {
			t.Fatal(err)
		}
		if b.Materialized() {
			t.Fatalf("frame %d: capturing materialized it", i)
		}
		want = append(want, append([]byte(nil), b.Bytes()...))
		b.Free()
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if !bytes.Equal(r.Data, want[i]) {
			t.Fatalf("record %d differs from the materialized frame", i)
		}
	}
	if _, tx, ok := pkt.ProbeInfo(recs[1].Data); !ok || tx != 0 {
		t.Fatalf("hardware-stamped probe recorded with TX field %v (probe %v)", tx, ok)
	}
	if _, tx, ok := pkt.ProbeInfo(recs[2].Data); !ok || tx != 7*units.Microsecond {
		t.Fatalf("software-stamped probe recorded with TX field %v (probe %v)", tx, ok)
	}
}
