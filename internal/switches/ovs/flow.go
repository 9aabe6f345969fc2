package ovs

import (
	"encoding/binary"

	"repro/internal/pkt"
)

// keyLen is the packed length of a flow key (miniflow): in_port, dl_dst,
// dl_src, dl_type, dl_vlan (the VLAN ID plus one, 0 = untagged, so
// dl_vlan matches tell "no tag" from VID 0), nw_src, nw_dst, nw_proto,
// tp_src and tp_dst, big-endian at the offsets fieldSpans lists.
const keyLen = 2 + 6 + 6 + 2 + 2 + 4 + 4 + 1 + 2 + 2

// packedKey is a comparable packed key, usable as a map key.
type packedKey [keyLen]byte

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

// packKey writes into *k the flow key of frame data received on inPort,
// whose headers parse as far as l (pkt.ParseLayout of data) says: each
// field is copied from the offset the verdict implies, and a field the
// frame lacks stays zero.
func packKey(k *packedKey, data []byte, l pkt.Layout, inPort int) {
	*k = packedKey{}
	binary.BigEndian.PutUint16(k[0:], uint16(inPort))
	if l&pkt.LayoutEth == 0 {
		return
	}
	copy(k[2:14], data[0:12]) // dl_dst, dl_src
	l3 := data[pkt.EthHdrLen:]
	copy(k[14:16], data[12:14])
	if l&pkt.LayoutVLAN != 0 {
		copy(k[14:16], data[16:18])
		binary.BigEndian.PutUint16(k[16:], binary.BigEndian.Uint16(data[14:16])&0x0fff+1)
		l3 = data[pkt.EthHdrLen+pkt.VLANTagLen:]
	}
	if l&pkt.LayoutIPv4 == 0 {
		return
	}
	copy(k[18:26], l3[12:20]) // nw_src, nw_dst
	k[26] = l3[9]
	if l&pkt.LayoutL4 != 0 {
		copy(k[27:31], l3[20:24]) // tp_src, tp_dst
	}
}
