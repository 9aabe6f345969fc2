package pkt

import (
	"encoding/binary"

	"repro/internal/units"
)

// FrameSpec describes the synthetic UDP-in-IPv4-in-Ethernet frames the
// traffic generators emit — the paper's "synthetic traffic of identical
// packets, corresponding to a single flow".
type FrameSpec struct {
	SrcMAC, DstMAC   MAC
	SrcIP, DstIP     [4]byte
	SrcPort, DstPort uint16
	FrameLen         int // total Ethernet frame length in bytes
}

// MinProbeFrameLen is the smallest frame that can carry a probe payload.
const MinProbeFrameLen = EthHdrLen + IPv4HdrLen + UDPHdrLen + probeLen

// Build writes the frame into buf (which must have FrameLen capacity).
func (s FrameSpec) Build(b *Buf) {
	b.SetLen(s.FrameLen)
	b.tmpl = nil // overwriting: the old image is irrelevant
	s.buildInto(b.Bytes())
}

// Template pre-serializes the frame image for flow index `flow` (0 for
// single-flow traffic). Generators build one Template per (spec, flow) and
// stamp emitted buffers with SetTemplate, deferring all byte work to the
// first consumer that actually reads the frame.
func (s FrameSpec) Template(flow int) *Template {
	t := new(Template)
	s.FillTemplate(t, make([]byte, s.FrameLen), flow)
	return t
}

// FillTemplate is Template with caller-supplied storage: it serializes the
// image for flow into data (len FrameLen, never mutated afterwards) and
// makes *t that image with a fresh identity. Generators carve t and data
// out of slabs shared by many flows instead of allocating both per flow.
func (s FrameSpec) FillTemplate(t *Template, data []byte, flow int) {
	s.buildInto(data)
	if flow != 0 {
		patchFlowBytes(data, s, flow)
	}
	*t = Template{data: data, id: templateIDs.Add(1)}
}

// buildInto serializes the frame into p (len must be FrameLen).
func (s FrameSpec) buildInto(p []byte) {
	if s.FrameLen < MinProbeFrameLen {
		panic("pkt: frame too short for headers")
	}
	EthHdr{Dst: s.DstMAC, Src: s.SrcMAC, EtherType: EtherTypeIPv4}.Put(p)
	ip := IPv4Hdr{
		TotalLen: uint16(s.FrameLen - EthHdrLen),
		TTL:      64,
		Proto:    ProtoUDP,
		Src:      s.SrcIP,
		Dst:      s.DstIP,
	}
	ip.Put(p[EthHdrLen:])
	udp := UDPHdr{
		SrcPort: s.SrcPort,
		DstPort: s.DstPort,
		Len:     uint16(s.FrameLen - EthHdrLen - IPv4HdrLen),
	}
	udp.Put(p[EthHdrLen+IPv4HdrLen:])
	for i := EthHdrLen + IPv4HdrLen + UDPHdrLen; i < s.FrameLen; i++ {
		p[i] = 0
	}
}

// Probe payload layout (inside the UDP payload), mimicking MoonGen's PTP
// timestamping packets: a magic marker, a sequence number, and the TX
// timestamp.
const (
	probeMagic  = 0x50545030 // "PTP0"
	probeLen    = 4 + 8 + 8
	probeOffset = EthHdrLen + IPv4HdrLen + UDPHdrLen
)

// MarkProbe stamps b as a latency probe with the given sequence number and
// transmit timestamp, writing the probe payload into the frame.
func MarkProbe(b *Buf, seq uint64, tx units.Time) {
	p := b.Bytes()
	binary.BigEndian.PutUint32(p[probeOffset:], probeMagic)
	binary.BigEndian.PutUint64(p[probeOffset+4:], seq)
	binary.BigEndian.PutUint64(p[probeOffset+12:], uint64(tx))
	b.Probe = true
	b.Seq = seq
	b.TxStamp = tx
}

// ProbeInfo extracts the probe sequence and TX timestamp from a frame, if it
// carries the probe marker.
func ProbeInfo(b *Buf) (seq uint64, tx units.Time, ok bool) {
	p := b.View()
	if len(p) < probeOffset+probeLen {
		return 0, 0, false
	}
	if binary.BigEndian.Uint32(p[probeOffset:]) != probeMagic {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(p[probeOffset+4:]),
		units.Time(binary.BigEndian.Uint64(p[probeOffset+12:])),
		true
}

// PatchFlow rewrites an already-built frame to belong to flow index i of a
// multi-flow stream: bytes 2–3 of the source MAC and the UDP source port
// are offset by i. The MAC's low bytes stay the ingress port's index: they
// are what tells one SUT-port address (switchdef.PortMAC) from another, so
// a flow index added there turns the source into the frame's own
// destination and a learning bridge drops it. (The IPv4 header checksum does not cover either field, and
// the generators leave the UDP checksum zero, so no recomputation is
// needed.)
func PatchFlow(b *Buf, spec FrameSpec, i int) {
	patchFlowBytes(b.Bytes(), spec, i)
}

func patchFlowBytes(p []byte, spec FrameSpec, i int) {
	mac := spec.SrcMAC
	mac[2] += byte(i >> 8)
	mac[3] += byte(i)
	SetEthSrc(p, mac)
	binary.BigEndian.PutUint16(p[EthHdrLen+IPv4HdrLen:], spec.SrcPort+uint16(i))
}
