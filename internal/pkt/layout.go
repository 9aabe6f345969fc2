package pkt

import "encoding/binary"

// Layout is a one-byte verdict on how far a frame's headers parse, from
// which a reader can take each field at a fixed offset without parsing
// again. Every Template carries the Layout of its image, computed once
// where the image is built.
type Layout uint8

const (
	// LayoutEth: the frame holds an Ethernet header (destination, source,
	// EtherType at bytes 0–13).
	LayoutEth Layout = 1 << iota
	// LayoutVLAN: an 802.1Q tag follows the source MAC (VLANID), so the
	// inner EtherType sits at bytes 16–17 and L3 starts at byte 18.
	LayoutVLAN
	// LayoutIPv4: the inner EtherType is IPv4 and an option-less header
	// that ParseIPv4 accepts, checksum included, starts L3.
	LayoutIPv4
	// LayoutL4: the IPv4 protocol is UDP or TCP and the frame holds the
	// 8 bytes of a UDP header after the IPv4 one (both ports).
	LayoutL4
)

// ParseLayout parses p's headers once and reports how far they go.
func ParseLayout(p []byte) Layout {
	if len(p) < EthHdrLen {
		return 0
	}
	l := LayoutEth
	etherType, l3 := binary.BigEndian.Uint16(p[12:14]), p[EthHdrLen:]
	if _, tagged := VLANID(p); tagged {
		l |= LayoutVLAN
		etherType, l3 = binary.BigEndian.Uint16(p[16:18]), p[EthHdrLen+VLANTagLen:]
	}
	if etherType != EtherTypeIPv4 {
		return l
	}
	ip, err := ParseIPv4(l3)
	if err != nil {
		return l
	}
	l |= LayoutIPv4
	if (ip.Proto == ProtoUDP || ip.Proto == ProtoTCP) && len(l3) >= IPv4HdrLen+UDPHdrLen {
		l |= LayoutL4
	}
	return l
}
