package pkt

import "encoding/binary"

// 802.1Q VLAN tagging: insert/strip the 4-byte tag after the source MAC.
// Used by the OvS push_vlan/pop_vlan actions.

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

// PushVLAN inserts an 802.1Q tag with the given VLAN ID. The buffer grows
// by VLANTagLen; the frame must fit in the buffer's capacity.
func PushVLAN(b *Buf, id uint16) {
	old := b.Len()
	b.SetLen(old + VLANTagLen)
	data := b.Bytes()
	// Shift everything after the MAC addresses right by 4.
	copy(data[12+VLANTagLen:], data[12:old])
	binary.BigEndian.PutUint16(data[12:14], EtherTypeVLAN)
	binary.BigEndian.PutUint16(data[14:16], id&0x0fff)
}

// PopVLAN removes the outer 802.1Q tag, if present, and reports whether it
// did.
func PopVLAN(b *Buf) bool {
	if _, ok := VLANID(b.View()); !ok {
		return false
	}
	data := b.Bytes()
	copy(data[12:], data[12+VLANTagLen:])
	b.SetLen(b.Len() - VLANTagLen)
	return true
}
