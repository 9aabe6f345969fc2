package pkt

import "encoding/binary"

// 802.1Q VLAN tags: the 4-byte tag after the source MAC. OvS's flow-key
// extraction reads it for dl_vlan matches.

// VLANTagLen is the length of an 802.1Q tag.
const VLANTagLen = 4

// VLANID extracts the VLAN ID if the frame is tagged (ok=false otherwise).
func VLANID(b []byte) (id uint16, ok bool) {
	if len(b) < EthHdrLen+VLANTagLen {
		return 0, false
	}
	if binary.BigEndian.Uint16(b[12:14]) != EtherTypeVLAN {
		return 0, false
	}
	return binary.BigEndian.Uint16(b[14:16]) & 0x0fff, true
}
