package ovs

import (
	"encoding/binary"

	"repro/internal/pkt"
)

// FlowKey is the exact-match key OvS extracts from each packet (miniflow).
type FlowKey struct {
	InPort  uint16
	EthDst  pkt.MAC
	EthSrc  pkt.MAC
	EthType uint16
	// VLAN holds the 802.1Q VLAN ID plus one (0 = untagged), so
	// dl_vlan matches can distinguish "no tag" from VID 0.
	VLAN    uint16
	IPSrc   [4]byte
	IPDst   [4]byte
	IPProto uint8
	L4Src   uint16
	L4Dst   uint16
}

// keyLen is the packed length of a FlowKey.
const keyLen = 2 + 6 + 6 + 2 + 2 + 4 + 4 + 1 + 2 + 2

// packedKey is a comparable packed key, usable as a map key.
type packedKey [keyLen]byte

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

// mask selects which key bytes a rule matches on.
type mask packedKey

func (m mask) apply(k packedKey) packedKey {
	var out packedKey
	for i := range k {
		out[i] = k[i] & m[i]
	}
	return out
}

// field offsets within packedKey, for mask construction.
type fieldSpan struct{ off, len int }

var fieldSpans = map[string]fieldSpan{
	"in_port":  {0, 2},
	"dl_dst":   {2, 6},
	"dl_src":   {8, 6},
	"dl_type":  {14, 2},
	"dl_vlan":  {16, 2},
	"nw_src":   {18, 4},
	"nw_dst":   {22, 4},
	"nw_proto": {26, 1},
	"tp_src":   {27, 2},
	"tp_dst":   {29, 2},
}

// ActionKind enumerates the OpenFlow actions typed rules lower into.
type ActionKind int

// Supported actions.
const (
	ActOutput ActionKind = iota
	ActDrop
	ActModDlDst
	ActModDlSrc
)

// Action is one flow action.
type Action struct {
	Kind ActionKind
	Port int
	MAC  pkt.MAC
}

// Rule is one OpenFlow rule.
type Rule struct {
	Priority int
	Match    packedKey // pre-masked match values
	Mask     mask
	Actions  []Action
	// seq is the installation order; among equal priorities the earlier
	// rule wins (OpenFlow leaves overlapping equal-priority matches
	// undefined; the datapath must still be deterministic).
	seq int

	// Hits counts rule matches (slow-path and via caches).
	Hits int64
}

// beats reports whether r wins over other ((priority, insertion) order).
func (r *Rule) beats(other *Rule) bool {
	if other == nil {
		return true
	}
	if r.Priority != other.Priority {
		return r.Priority > other.Priority
	}
	return r.seq < other.seq
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
