package ovs

import (
	"encoding/binary"
	"fmt"
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

// FlowKey, pack and extractKey are the reference flow key: every field
// parsed with the pkt codecs, then packed. flowKey copies the same bytes
// out of a frame at the offsets its pkt.Layout implies, and the tests
// below hold it to this.
type FlowKey struct {
	InPort  uint16
	EthDst  pkt.MAC
	EthSrc  pkt.MAC
	EthType uint16
	VLAN    uint16 // the 802.1Q VLAN ID plus one (0 = untagged)
	IPSrc   [4]byte
	IPDst   [4]byte
	IPProto uint8
	L4Src   uint16
	L4Dst   uint16
}

func (k *FlowKey) pack() packedKey {
	var p packedKey
	binary.BigEndian.PutUint16(p[0:], k.InPort)
	copy(p[2:], k.EthDst[:])
	copy(p[8:], k.EthSrc[:])
	binary.BigEndian.PutUint16(p[14:], k.EthType)
	binary.BigEndian.PutUint16(p[16:], k.VLAN)
	copy(p[18:], k.IPSrc[:])
	copy(p[22:], k.IPDst[:])
	p[26] = k.IPProto
	binary.BigEndian.PutUint16(p[27:], k.L4Src)
	binary.BigEndian.PutUint16(p[29:], k.L4Dst)
	return p
}

// extractKey builds the FlowKey for a frame received on inPort.
func extractKey(b *pkt.Buf, inPort int) FlowKey {
	var k FlowKey
	k.InPort = uint16(inPort)
	data := b.View()
	eth, err := pkt.ParseEth(data)
	if err != nil {
		return k
	}
	k.EthDst, k.EthSrc, k.EthType = eth.Dst, eth.Src, eth.EtherType
	l3 := data[pkt.EthHdrLen:]
	if vid, tagged := pkt.VLANID(data); tagged {
		k.VLAN = vid + 1
		k.EthType = binary.BigEndian.Uint16(data[pkt.EthHdrLen+2 : pkt.EthHdrLen+4])
		l3 = data[pkt.EthHdrLen+pkt.VLANTagLen:]
	}
	if k.EthType != pkt.EtherTypeIPv4 || len(l3) < pkt.IPv4HdrLen {
		return k
	}
	ip, err := pkt.ParseIPv4(l3)
	if err != nil {
		return k
	}
	k.IPSrc, k.IPDst, k.IPProto = ip.Src, ip.Dst, ip.Proto
	if ip.Proto == pkt.ProtoUDP || ip.Proto == pkt.ProtoTCP {
		if udp, err := pkt.ParseUDP(l3[pkt.IPv4HdrLen:]); err == nil {
			k.L4Src, k.L4Dst = udp.SrcPort, udp.DstPort
		}
	}
	return k
}

// checkFlowKey fails unless sw.flowKey of b on port returns the reference
// key and its keyHash.
func checkFlowKey(t *testing.T, sw *Switch, b *pkt.Buf, port int, what string) {
	t.Helper()
	key := extractKey(b, port)
	want := key.pack()
	got, h := sw.flowKey(b, port)
	if *got != want || h != keyHash(&want) {
		t.Fatalf("%s (port %d): flowKey = %x (hash %#x), extractKey = %x (hash %#x)",
			what, port, *got, h, want, keyHash(&want))
	}
}

// tagVLAN returns img with an 802.1Q tag of VLAN ID vid inserted after the
// source MAC.
func tagVLAN(img []byte, vid uint16) []byte {
	tagged := make([]byte, 0, len(img)+pkt.VLANTagLen)
	tagged = append(tagged, img[:12]...)
	tagged = binary.BigEndian.AppendUint16(tagged, pkt.EtherTypeVLAN)
	tagged = binary.BigEndian.AppendUint16(tagged, vid)
	return append(tagged, img[12:]...)
}

// TestFlowKeyMatchesExtract holds flowKey — the key packed from each
// template's layout verdict, and the per-port entry behind it — to a fresh
// extractKey + pack + keyHash of every buffer: on one port alternating
// between templates, on two ports sharing a template, on a VLAN-tagged
// template, on a template whose IPv4 checksum is wrong, on a materialized
// buffer whose bytes were edited after it left its template, and on a
// buffer cut short of its template's length.
func TestFlowKeyMatchesExtract(t *testing.T) {
	sw, _, env := newSUT(2)
	a, b := keySpec.Template(0), keySpec.Template(1)
	img := a.Image()
	vlan := pkt.NewTemplate(tagVLAN(img, 10))
	img[pkt.EthHdrLen+10] ^= 1 // the IPv4 checksum
	badSum := pkt.NewTemplate(img)
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
		{0, buf(vlan)}, {0, buf(vlan)}, {0, buf(badSum)}, {1, buf(badSum)},
		{0, buf(a)}, {0, edited}, {0, buf(a)},
		{0, buf(b)}, {0, short}, {0, buf(b)},
	}
	for i, s := range steps {
		checkFlowKey(t, sw, s.b, s.port, fmt.Sprintf("step %d", i))
		s.b.Free()
	}
	if live := env.Pool.Live(); live != 0 {
		t.Fatalf("leaked %d buffers", live)
	}
}

// FuzzLayoutKey holds flowKey to the reference key on any frame bytes and
// length: as a template (twice, the second time through the port's
// entry), as a buffer of its own bytes, and as a template-backed buffer
// cut to cut bytes. A seed frame mutated by the fuzzer almost never keeps
// a valid IPv4 checksum, so fixSum rewrites it wherever the frame's
// EtherType says IPv4 sits, and the fuzzer reaches every layout.
func FuzzLayoutKey(f *testing.F) {
	img := keySpec.Template(3).Image()
	f.Add(img, false, uint16(64))
	f.Add(tagVLAN(img, 7), false, uint16(30))
	f.Add(tagVLAN(img, 4095), true, uint16(45))
	f.Add(img[:pkt.EthHdrLen+pkt.IPv4HdrLen+4], true, uint16(0))
	f.Add([]byte{1, 2, 3}, false, uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, fixSum bool, cut uint16) {
		data = append([]byte(nil), data[:min(len(data), 2048)]...)
		if fixSum {
			l3 := pkt.EthHdrLen
			if _, tagged := pkt.VLANID(data); tagged {
				l3 += pkt.VLANTagLen
			}
			if len(data) >= l3+pkt.IPv4HdrLen {
				data[l3+10], data[l3+11] = 0, 0
				binary.BigEndian.PutUint16(data[l3+10:], pkt.Checksum16(data[l3:l3+pkt.IPv4HdrLen]))
			}
		}
		sw, _, env := newSUT(2)
		tm := pkt.NewTemplate(data)
		if got, want := tm.Layout(), pkt.ParseLayout(data); got != want {
			t.Fatalf("NewTemplate layout %#x, ParseLayout %#x", got, want)
		}
		for i, port := range []int{0, 0, 1} {
			b := env.Pool.Get(len(data))
			b.SetTemplate(tm)
			checkFlowKey(t, sw, b, port, fmt.Sprintf("template, pass %d", i))
			b.Free()
		}
		own := env.Pool.Get(len(data))
		copy(own.Bytes(), data)
		checkFlowKey(t, sw, own, 1, "own bytes")
		own.Free()
		short := env.Pool.Get(len(data))
		short.SetTemplate(tm)
		short.SetLen(min(int(cut), len(data)))
		checkFlowKey(t, sw, short, 1, "cut short")
		short.Free()
	})
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
