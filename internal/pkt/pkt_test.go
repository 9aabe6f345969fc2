package pkt

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestPoolReuse(t *testing.T) {
	p := NewPool(2048)
	a := p.Get(64)
	if p.Live() != 1 || p.Allocated() != 1 {
		t.Fatalf("live=%d allocated=%d", p.Live(), p.Allocated())
	}
	a.Free()
	b := p.Get(128)
	if p.Allocated() != 1 {
		t.Fatalf("expected reuse, allocated=%d", p.Allocated())
	}
	if b.Len() != 128 {
		t.Fatalf("len=%d", b.Len())
	}
	if b.Probe || b.Seq != 0 || b.TxStamp != 0 {
		t.Fatal("metadata not reset on reuse")
	}
}

func TestPoolDoubleFreePanics(t *testing.T) {
	p := NewPool(64)
	b := p.Get(64)
	b.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	b.Free()
}

func TestPoolGrows(t *testing.T) {
	p := NewPool(64)
	var bufs []*Buf
	for i := 0; i < 100; i++ {
		bufs = append(bufs, p.Get(64))
	}
	if p.Allocated() != 100 || p.Live() != 100 {
		t.Fatalf("allocated=%d live=%d", p.Allocated(), p.Live())
	}
	for _, b := range bufs {
		b.Free()
	}
	if p.Live() != 0 {
		t.Fatalf("live=%d after freeing all", p.Live())
	}
}

func TestBufCopyFrom(t *testing.T) {
	p := NewPool(256)
	src := p.Get(100)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(i)
	}
	src.Seq, src.Probe, src.TxStamp = 42, true, 7*units.Microsecond
	dst := p.Get(64)
	dst.CopyFrom(src)
	if dst.Len() != 100 || !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("payload not copied")
	}
	if dst.Seq != 42 || !dst.Probe || dst.TxStamp != 7*units.Microsecond {
		t.Fatal("metadata not copied")
	}
}

// TestMACRoundTrip checks String against the standard library's parser:
// every formatted MAC must parse back to the same six bytes.
func TestMACRoundTrip(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	s := m.String()
	if s != "de:ad:be:ef:00:01" {
		t.Fatalf("String = %q", s)
	}
	f := func(raw [6]byte) bool {
		back, err := net.ParseMAC(MAC(raw).String())
		return err == nil && bytes.Equal(back, raw[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMACClassification(t *testing.T) {
	if Broadcast != (MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) || !Broadcast.IsMulticast() {
		t.Fatal("broadcast misclassified")
	}
	uni := MAC{0x02, 0, 0, 0, 0, 1}
	if uni == Broadcast || uni.IsMulticast() {
		t.Fatal("unicast misclassified")
	}
	multi := MAC{0x01, 0, 0x5e, 0, 0, 1}
	if !multi.IsMulticast() || multi == Broadcast {
		t.Fatal("multicast misclassified")
	}
}

// TestMACKeyPacksBytes: Key is the MAC's six bytes, big-endian, in the
// low 48 bits, so two MACs share a key only if they are equal.
func TestMACKeyPacksBytes(t *testing.T) {
	f := func(m [6]byte) bool {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], MAC(m).Key())
		return b[0] == 0 && b[1] == 0 && [6]byte(b[2:]) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if k := (MAC{0x02, 0, 0, 0, 0x01, 0xff}).Key(); k != 0x0200000001ff {
		t.Fatalf("Key = %#x", k)
	}
}

func TestEthRoundTripProperty(t *testing.T) {
	f := func(dst, src [6]byte, et uint16) bool {
		h := EthHdr{Dst: MAC(dst), Src: MAC(src), EtherType: et}
		var b [EthHdrLen]byte
		h.Put(b[:])
		got, err := ParseEth(b[:])
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEthAccessors(t *testing.T) {
	h := EthHdr{Dst: MAC{1, 2, 3, 4, 5, 6}, Src: MAC{7, 8, 9, 10, 11, 12}, EtherType: EtherTypeIPv4}
	var b [64]byte
	h.Put(b[:])
	if EthDst(b[:]) != h.Dst || EthSrc(b[:]) != h.Src {
		t.Fatal("accessor mismatch")
	}
	SetEthDst(b[:], MAC{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff})
	if EthDst(b[:]) != (MAC{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}) {
		t.Fatal("SetEthDst failed")
	}
	SetEthSrc(b[:], MAC{1, 1, 1, 1, 1, 1})
	if EthSrc(b[:]) != (MAC{1, 1, 1, 1, 1, 1}) {
		t.Fatal("SetEthSrc failed")
	}
}

func TestParseEthTruncated(t *testing.T) {
	if _, err := ParseEth(make([]byte, 13)); err != ErrTruncated {
		t.Fatalf("err = %v", err)
	}
}

// FuzzEthRoundTrip: for any input of at least EthHdrLen bytes, ParseEth
// then Put reproduces the first EthHdrLen bytes, Put writes nothing beyond
// them, EthDst agrees with the parsed destination, and SetEthDst writes
// exactly what Put of the header with that destination writes; anything
// shorter is ErrTruncated. The field accessors are t4p4s's parser and
// deparser, so this is their equivalence with the whole-header codec.
func FuzzEthRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, EthHdrLen-1))
	f.Add(make([]byte, EthHdrLen))
	frame := make([]byte, 64)
	FrameSpec{
		SrcMAC: MAC{2, 0, 0, 0, 0, 1}, DstMAC: MAC{2, 0, 0, 0, 0, 2},
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000, FrameLen: 64,
	}.buildInto(frame)
	f.Add(frame)
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := ParseEth(b)
		if len(b) < EthHdrLen {
			if err != ErrTruncated {
				t.Fatalf("ParseEth(%d bytes) err = %v, want ErrTruncated", len(b), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("ParseEth(%d bytes): %v", len(b), err)
		}
		if got := EthDst(b); got != h.Dst {
			t.Fatalf("EthDst = %v, ParseEth().Dst = %v", got, h.Dst)
		}
		out := make([]byte, len(b))
		for i := range out {
			out[i] = ^b[i]
		}
		h.Put(out)
		if !bytes.Equal(out[:EthHdrLen], b[:EthHdrLen]) {
			t.Fatalf("Put(ParseEth(b)) = % x, want % x", out[:EthHdrLen], b[:EthHdrLen])
		}
		for i := EthHdrLen; i < len(b); i++ {
			if out[i] != ^b[i] {
				t.Fatalf("Put wrote byte %d beyond the header", i)
			}
		}
		rewritten := h
		rewritten.Dst = MAC{b[5], b[4], b[3], b[2], b[1], ^b[0]}
		viaPut, viaSet := bytes.Clone(b), bytes.Clone(b)
		rewritten.Put(viaPut)
		SetEthDst(viaSet, rewritten.Dst)
		if !bytes.Equal(viaPut, viaSet) {
			t.Fatalf("SetEthDst = % x, Put = % x", viaSet, viaPut)
		}
	})
}

// FuzzIPv4UDPRoundTrip: for any input, ParseIPv4 and ParseUDP each reject
// one shorter than their header with ErrTruncated, and Put of a header
// either accepts reproduces its bytes exactly and writes nothing beyond
// them; the IPv4 header Put writes verifies under Checksum16. The input's
// first 20 bytes with a canonical checksum written in must be accepted,
// so that every field value, not only inputs that happen to checksum,
// goes through the round trip. OvS parses every frame's flow key with
// these decoders.
func FuzzIPv4UDPRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, UDPHdrLen-1))
	f.Add(make([]byte, IPv4HdrLen-1))
	frame := make([]byte, 64)
	FrameSpec{
		SrcMAC: MAC{2, 0, 0, 0, 0, 1}, DstMAC: MAC{2, 0, 0, 0, 0, 2},
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000, FrameLen: 64,
	}.buildInto(frame)
	f.Add(frame[EthHdrLen:])
	f.Add(frame[EthHdrLen+IPv4HdrLen:])
	// Don't-fragment set, a UDP checksum, and a header whose checksum
	// field is the ones-complement -0.
	f.Add([]byte{0x45, 0, 0, 28, 0, 1, 0x40, 0, 64, 17, 0, 0, 10, 0, 0, 1, 10, 0, 0, 2})
	f.Add([]byte{0x03, 0xe8, 0x07, 0xd0, 0, 8, 0xbe, 0xef})
	f.Add([]byte{0x45, 0, 0xba, 0xff, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		// roundTrip checks that put writes back the first n bytes of b
		// and nothing after them.
		roundTrip := func(what string, n int, put func([]byte)) []byte {
			out := make([]byte, len(b))
			for i := range out {
				out[i] = ^b[i]
			}
			put(out)
			if !bytes.Equal(out[:n], b[:n]) {
				t.Fatalf("%s: Put(Parse(b)) = % x, want % x", what, out[:n], b[:n])
			}
			for i := n; i < len(b); i++ {
				if out[i] != ^b[i] {
					t.Fatalf("%s: Put wrote byte %d beyond the header", what, i)
				}
			}
			return out
		}
		if u, err := ParseUDP(b); len(b) < UDPHdrLen {
			if err != ErrTruncated {
				t.Fatalf("ParseUDP(%d bytes) err = %v, want ErrTruncated", len(b), err)
			}
		} else if err != nil {
			t.Fatalf("ParseUDP(%d bytes): %v", len(b), err)
		} else {
			roundTrip("UDP", UDPHdrLen, u.Put)
		}
		ip, err := ParseIPv4(b)
		if len(b) < IPv4HdrLen {
			if err != ErrTruncated {
				t.Fatalf("ParseIPv4(%d bytes) err = %v, want ErrTruncated", len(b), err)
			}
			return
		}
		if err == nil {
			out := roundTrip("IPv4", IPv4HdrLen, ip.Put)
			if c := Checksum16(out[:IPv4HdrLen]); c != 0 {
				t.Fatalf("the header Put wrote sums to %#04x, want 0", c)
			}
		}
		canon := bytes.Clone(b[:IPv4HdrLen])
		canon[0], canon[10], canon[11] = 0x45, 0, 0
		binary.BigEndian.PutUint16(canon[10:12], Checksum16(canon))
		ip, err = ParseIPv4(canon)
		if err != nil {
			t.Fatalf("ParseIPv4 of % x with its checksum written in: %v", canon, err)
		}
		var out [IPv4HdrLen]byte
		ip.Put(out[:])
		if !bytes.Equal(out[:], canon) {
			t.Fatalf("Put(ParseIPv4(b)) = % x, want % x", out, canon)
		}
	})
}

func TestIPv4RoundTripProperty(t *testing.T) {
	f := func(tos uint8, tl, id uint16, ttl, proto uint8, src, dst [4]byte) bool {
		h := IPv4Hdr{TOS: tos, TotalLen: tl, ID: id, TTL: ttl, Proto: proto, Src: src, Dst: dst}
		var b [IPv4HdrLen]byte
		h.Put(b[:])
		got, err := ParseIPv4(b[:])
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	h := IPv4Hdr{TotalLen: 50, TTL: 64, Proto: ProtoUDP, Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 0, 0, 2}}
	var b [IPv4HdrLen]byte
	h.Put(b[:])
	b[8] ^= 0xff // corrupt TTL
	if _, err := ParseIPv4(b[:]); err != ErrChecksum {
		t.Fatalf("err = %v, want checksum error", err)
	}
}

func TestIPv4RejectsNonIPv4(t *testing.T) {
	var b [IPv4HdrLen]byte
	b[0] = 0x60 // IPv6
	if _, err := ParseIPv4(b[:]); err != ErrVersion {
		t.Fatalf("err = %v", err)
	}
	if _, err := ParseIPv4(b[:10]); err != ErrTruncated {
		t.Fatalf("err = %v", err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// Classic RFC 1071 example header.
	b := []byte{
		0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11,
		0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
	}
	if got := Checksum16(b); got != 0xb861 {
		t.Fatalf("checksum = %#04x, want 0xb861", got)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	f := func(sp, dp, l uint16) bool {
		h := UDPHdr{SrcPort: sp, DstPort: dp, Len: l}
		var b [UDPHdrLen]byte
		h.Put(b[:])
		got, err := ParseUDP(b[:])
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseUDP(make([]byte, 4)); err != ErrTruncated {
		t.Fatal("truncated UDP accepted")
	}
}

func TestFrameSpecBuildParses(t *testing.T) {
	p := NewPool(2048)
	spec := FrameSpec{
		SrcMAC: MAC{2, 0, 0, 0, 0, 1}, DstMAC: MAC{2, 0, 0, 0, 0, 2},
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 1234, DstPort: 5678, FrameLen: 64,
	}
	b := p.Get(64)
	spec.Build(b)
	if b.Len() != 64 {
		t.Fatalf("len=%d", b.Len())
	}
	eth, err := ParseEth(b.Bytes())
	if err != nil || eth.Dst != spec.DstMAC || eth.EtherType != EtherTypeIPv4 {
		t.Fatalf("eth = %+v, %v", eth, err)
	}
	ip, err := ParseIPv4(b.Bytes()[EthHdrLen:])
	if err != nil || ip.Proto != ProtoUDP || ip.TotalLen != 50 {
		t.Fatalf("ip = %+v, %v", ip, err)
	}
	udp, err := ParseUDP(b.Bytes()[EthHdrLen+IPv4HdrLen:])
	if err != nil || udp.DstPort != 5678 {
		t.Fatalf("udp = %+v, %v", udp, err)
	}
}

func TestProbeRoundTrip(t *testing.T) {
	p := NewPool(2048)
	spec := FrameSpec{FrameLen: 64, SrcMAC: MAC{2, 0, 0, 0, 0, 1}, DstMAC: MAC{2, 0, 0, 0, 0, 2}}
	b := p.Get(64)
	spec.Build(b)
	if _, _, ok := ProbeInfo(b.Bytes()); ok {
		t.Fatal("non-probe frame recognized as probe")
	}
	MarkProbe(b, 99, 123*units.Microsecond)
	seq, tx, ok := ProbeInfo(b.Bytes())
	if !ok || seq != 99 || tx != 123*units.Microsecond {
		t.Fatalf("probe = %d, %v, %v", seq, tx, ok)
	}
	// Probe survives a copy (vhost path).
	c := p.Clone(b)
	seq, tx, ok = ProbeInfo(c.Bytes())
	if !ok || seq != 99 || tx != 123*units.Microsecond {
		t.Fatal("probe lost in copy")
	}
}

func TestFrameTooShortPanics(t *testing.T) {
	p := NewPool(64)
	b := p.Get(40)
	defer func() {
		if recover() == nil {
			t.Fatal("short frame did not panic")
		}
	}()
	FrameSpec{FrameLen: 40}.Build(b)
}

func TestVLANIDMasksPCP(t *testing.T) {
	p := NewPool(2048)
	b := p.Get(64)
	FrameSpec{SrcMAC: MAC{2, 0, 0, 0, 0, 1}, DstMAC: MAC{2, 0, 0, 0, 0, 2}, FrameLen: 64}.Build(b)
	if _, ok := VLANID(b.Bytes()); ok {
		t.Fatal("untagged frame reports a VLAN")
	}
	// Tag VID 0xfff with PCP bits set on the wire; VLANID must mask them off.
	data := b.Bytes()
	binary.BigEndian.PutUint16(data[12:], EtherTypeVLAN)
	binary.BigEndian.PutUint16(data[14:], 0xe000|0x0fff)
	id, ok := VLANID(b.Bytes())
	if !ok || id != 0x0fff {
		t.Fatalf("vlan = %#x", id)
	}
}

func TestPatchFlowVariesSrcFields(t *testing.T) {
	p := NewPool(2048)
	spec := FrameSpec{
		SrcMAC: MAC{2, 0, 0, 0, 0, 1}, DstMAC: MAC{2, 0, 0, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000, FrameLen: 64,
	}
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		b := p.Get(64)
		spec.Build(b)
		PatchFlow(b, spec, i)
		key := string(b.Bytes()[6:12]) + string(b.Bytes()[EthHdrLen+IPv4HdrLen:EthHdrLen+IPv4HdrLen+2])
		if seen[key] {
			t.Fatalf("flow %d collides", i)
		}
		seen[key] = true
		// Destination stays fixed (the forwarding key).
		if EthDst(b.Bytes()) != spec.DstMAC {
			t.Fatal("dst MAC changed")
		}
		b.Free()
	}
}

// TestFlowsDistinctUpToMaxFlows: the images of flows 0..MaxFlows−1 of a
// spec are pairwise distinct, and flow MaxFlows is flow 0's again — the
// bound core's Config.Validate holds Flows to.
func TestFlowsDistinctUpToMaxFlows(t *testing.T) {
	spec := FrameSpec{
		SrcMAC: MAC{2, 0, 0x12, 0x34, 0, 1}, DstMAC: MAC{2, 0, 0, 0, 0, 2},
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000, FrameLen: 64,
	}
	seen := make(map[string]int, MaxFlows)
	for f := 0; f < MaxFlows; f++ {
		img := string(spec.Template(f).Image())
		if g, ok := seen[img]; ok {
			t.Fatalf("flows %d and %d have one image", g, f)
		}
		seen[img] = f
	}
	if !bytes.Equal(spec.Template(MaxFlows).Image(), spec.Template(0).Image()) {
		t.Fatalf("flow %d differs from flow 0: the flow patch encodes more than 16 bits", MaxFlows)
	}
}

// BenchmarkHeaderCodec measures the from-scratch header parse path (the
// per-packet work every match/action switch performs).
func BenchmarkHeaderCodec(b *testing.B) {
	pool := NewPool(2048)
	f := pool.Get(64)
	FrameSpec{
		SrcMAC: MAC{2, 0, 0, 0, 0, 1}, DstMAC: MAC{2, 0, 0, 0, 0, 2},
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000, FrameLen: 64,
	}.Build(f)
	data := f.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseEth(data); err != nil {
			b.Fatal(err)
		}
		if _, err := ParseIPv4(data[EthHdrLen:]); err != nil {
			b.Fatal(err)
		}
	}
}
