package pkt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MAC is an Ethernet hardware address.
type MAC [6]byte

// String formats m in the canonical colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Key packs m's six bytes into the low 48 bits of a uint64, most
// significant byte first. Switch tables key their MAC maps by it: Go maps
// hash uint64 keys on a fast path, while [6]byte keys take the generic
// byte hash.
func (m MAC) Key() uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// IsMulticast reports whether the group bit is set.
func (m MAC) IsMulticast() bool { return m[0]&1 == 1 }

// Broadcast is the all-ones address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// EtherType values used by the testbed.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeVLAN uint16 = 0x8100
)

// EthHdrLen is the length of an untagged Ethernet header.
const EthHdrLen = 14

// EthHdr is an Ethernet II header.
type EthHdr struct {
	Dst, Src  MAC
	EtherType uint16
}

// Errors returned by the header decoders.
var (
	ErrTruncated = errors.New("pkt: truncated header")
	ErrChecksum  = errors.New("pkt: bad IPv4 checksum")
	ErrVersion   = errors.New("pkt: not IPv4")
)

// ParseEth decodes an Ethernet header from the start of b.
func ParseEth(b []byte) (EthHdr, error) {
	var h EthHdr
	if len(b) < EthHdrLen {
		return h, ErrTruncated
	}
	copy(h.Dst[:], b[0:6])
	copy(h.Src[:], b[6:12])
	h.EtherType = binary.BigEndian.Uint16(b[12:14])
	return h, nil
}

// Put encodes the header into the first EthHdrLen bytes of b.
func (h EthHdr) Put(b []byte) {
	copy(b[0:6], h.Dst[:])
	copy(b[6:12], h.Src[:])
	binary.BigEndian.PutUint16(b[12:14], h.EtherType)
}

// EthDst reads only the destination address (the hot-path accessor L2
// switches use without a full parse).
func EthDst(b []byte) MAC { return MAC(b[0:6]) }

// EthSrc reads only the source address.
func EthSrc(b []byte) MAC {
	var m MAC
	copy(m[:], b[6:12])
	return m
}

// SetEthDst overwrites the destination address in place.
func SetEthDst(b []byte, m MAC) { copy(b[0:6], m[:]) }

// SetEthSrc overwrites the source address in place.
func SetEthSrc(b []byte, m MAC) { copy(b[6:12], m[:]) }

// IPv4HdrLen is the length of an option-less IPv4 header.
const IPv4HdrLen = 20

// IPv4Hdr is an option-less IPv4 header.
type IPv4Hdr struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	// FlagsFrag is the flags and fragment offset field as on the wire
	// (0x4000 is don't-fragment).
	FlagsFrag uint16
	TTL       uint8
	Proto     uint8
	Src, Dst  [4]byte
}

// IP protocol numbers used by the testbed.
const (
	ProtoUDP uint8 = 17
	ProtoTCP uint8 = 6
)

// ParseIPv4 decodes an IPv4 header (without options) from the start of b,
// verifying version, length, and checksum. A checksum field of 0xffff, the
// ones-complement -0, is rejected even where it sums right: the checksum
// of a header starting 0x45 computes to it never, so Put could not write
// the header back.
func ParseIPv4(b []byte) (IPv4Hdr, error) {
	var h IPv4Hdr
	if len(b) < IPv4HdrLen {
		return h, ErrTruncated
	}
	if b[0] != 0x45 { // version 4, IHL 5
		return h, ErrVersion
	}
	if Checksum16(b[:IPv4HdrLen]) != 0 || b[10]&b[11] == 0xff {
		return h, ErrChecksum
	}
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	h.FlagsFrag = binary.BigEndian.Uint16(b[6:8])
	h.TTL = b[8]
	h.Proto = b[9]
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	return h, nil
}

// Put encodes the header (with a freshly computed checksum) into the first
// IPv4HdrLen bytes of b.
func (h IPv4Hdr) Put(b []byte) {
	b[0] = 0x45
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:4], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	binary.BigEndian.PutUint16(b[6:8], h.FlagsFrag)
	b[8] = h.TTL
	b[9] = h.Proto
	b[10], b[11] = 0, 0 // checksum placeholder
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	binary.BigEndian.PutUint16(b[10:12], Checksum16(b[:IPv4HdrLen]))
}

// Checksum16 computes the ones-complement checksum over b (the Internet
// checksum). Computing it over a header with a correct checksum field
// yields zero.
func Checksum16(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// UDPHdrLen is the length of a UDP header.
const UDPHdrLen = 8

// UDPHdr is a UDP header. Checksum is carried as on the wire, not
// computed: generated frames leave it zero (legal for IPv4), as high-speed
// traffic generators do.
type UDPHdr struct {
	SrcPort, DstPort uint16
	Len              uint16
	Checksum         uint16
}

// ParseUDP decodes a UDP header from the start of b.
func ParseUDP(b []byte) (UDPHdr, error) {
	var h UDPHdr
	if len(b) < UDPHdrLen {
		return h, ErrTruncated
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Len = binary.BigEndian.Uint16(b[4:6])
	h.Checksum = binary.BigEndian.Uint16(b[6:8])
	return h, nil
}

// Put encodes the header into the first UDPHdrLen bytes of b.
func (h UDPHdr) Put(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint16(b[4:6], h.Len)
	binary.BigEndian.PutUint16(b[6:8], h.Checksum)
}
