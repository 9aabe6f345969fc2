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
// single-flow traffic). Buffers stamped with it by SetTemplate defer all
// byte work to the first consumer that actually reads the frame. (The
// generators do not call it: they take each image from tgen's
// process-wide store, which builds it once through FillTemplate or
// FillTemplateFrom.)
func (s FrameSpec) Template(flow int) *Template {
	t := new(Template)
	s.FillTemplate(t, make([]byte, s.FrameLen), flow)
	return t
}

// FillTemplate is Template with caller-supplied storage: it serializes the
// image for flow into data (len FrameLen, never mutated afterwards), parses
// its Layout and makes *t that image. A template store carves t and data
// out of slabs shared by many flows instead of allocating both per flow.
func (s FrameSpec) FillTemplate(t *Template, data []byte, flow int) {
	s.buildInto(data)
	if flow != 0 {
		patchFlowBytes(data, s, flow)
	}
	*t = Template{data: data, layout: ParseLayout(data)}
}

// FillTemplateFrom is FillTemplate by copy and patch: base must be an image
// of s, built for any flow, and data receives a copy of it with flow's
// fields patched in. The patch writes absolute values and touches no field
// the IPv4 checksum covers, so the result is byte for byte what
// FillTemplate(t, data, flow) serializes, whichever flow base was built
// for; and it moves no header boundary, so *t takes base's Layout without
// parsing. A store of many flows serializes one image per frame length and
// copies the rest.
func (s FrameSpec) FillTemplateFrom(t *Template, data []byte, base *Template, flow int) {
	copy(data, base.data)
	patchFlowBytes(data, s, flow)
	*t = Template{data: data, layout: base.layout}
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

// stampKind is the probe payload a buffer carries, if any: the marker and
// Seq, then a TX field holding either 0 or TxStamp.
type stampKind uint8

const (
	stampNone stampKind = iota
	// stampZeroTx leaves the payload's TX field 0: a hardware-stamped
	// probe, whose TxStamp the NIC fills in as it hits the wire.
	stampZeroTx
	// stampTx writes TxStamp, the generator's software timestamp.
	stampTx
)

// MarkProbe makes b a latency probe with the given sequence number and
// transmit timestamp (0: the NIC stamps TxStamp on the wire, and the
// payload's TX field stays 0). The probe payload — marker, sequence, TX
// field — is part of the frame from now on, but on a template-backed
// frame it is metadata until the frame materializes; a frame that already
// has bytes of its own gets them written at once.
func MarkProbe(b *Buf, seq uint64, tx units.Time) {
	b.Probe = true
	b.Seq = seq
	b.TxStamp = tx
	b.stamp = stampZeroTx
	if tx != 0 {
		b.stamp = stampTx
	}
	if b.tmpl == nil {
		b.writeStamp(b.Bytes())
	}
}

// writeStamp writes b's probe payload, if it has one, into its frame
// contents p, clipped to len(p).
func (b *Buf) writeStamp(p []byte) {
	if b.stamp == stampNone || len(p) <= probeOffset {
		return
	}
	var s [probeLen]byte
	binary.BigEndian.PutUint32(s[:], probeMagic)
	binary.BigEndian.PutUint64(s[4:], b.Seq)
	if b.stamp == stampTx {
		binary.BigEndian.PutUint64(s[12:], uint64(b.TxStamp))
	}
	copy(p[probeOffset:], s[:])
}

// ProbeInfo parses the probe sequence and TX timestamp out of frame bytes
// (a capture record, say), if they carry the probe marker. The testbed
// itself never parses a probe: its RTT samples read Buf metadata.
func ProbeInfo(p []byte) (seq uint64, tx units.Time, ok bool) {
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

// patchFlowBytes writes flow i's source MAC and UDP source port into p,
// both computed from spec alone, so patching flow 0 leaves a built image
// as it was.
func patchFlowBytes(p []byte, spec FrameSpec, i int) {
	mac := spec.SrcMAC
	mac[2] += byte(i >> 8)
	mac[3] += byte(i)
	SetEthSrc(p, mac)
	binary.BigEndian.PutUint16(p[EthHdrLen+IPv4HdrLen:], spec.SrcPort+uint16(i))
}
