// Package pcap writes classic libpcap capture files (the 24-byte global
// header followed by per-record headers), so simulated traffic can be
// inspected with tcpdump/Wireshark. Timestamps come from the simulation
// clock: simulated picoseconds map to capture microseconds.
package pcap

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/pkt"
	"repro/internal/units"
)

// File format constants.
const (
	magicMicros   = 0xa1b2c3d4
	versionMajor  = 2
	versionMinor  = 4
	linkTypeEther = 1
	maxSnapLen    = 65535
)

// Writer streams packets into a pcap file.
type Writer struct {
	w       io.Writer
	snapLen int
	count   int64
	// frame is scratch space the frame being written is rendered into.
	frame []byte
}

// NewWriter writes the global header and returns a ready Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], magicMicros)
	binary.LittleEndian.PutUint16(hdr[4:], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:], versionMinor)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(hdr[16:], maxSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:], linkTypeEther)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: writing header: %w", err)
	}
	return &Writer{w: w, snapLen: maxSnapLen}, nil
}

// WritePacket records one frame at the given simulated time: its contents
// as Buf.Bytes() would show them (a lazy probe's stamp included), rendered
// without changing the buffer.
func (pw *Writer) WritePacket(at units.Time, b *pkt.Buf) error {
	pw.frame = b.AppendTo(pw.frame[:0])
	data := pw.frame
	capLen := len(data)
	if capLen > pw.snapLen {
		capLen = pw.snapLen
	}
	micros := int64(at / units.Microsecond)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(micros/1_000_000))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(micros%1_000_000))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(capLen))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(data)))
	if _, err := pw.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: writing record header: %w", err)
	}
	if _, err := pw.w.Write(data[:capLen]); err != nil {
		return fmt.Errorf("pcap: writing record: %w", err)
	}
	pw.count++
	return nil
}

// Count returns the number of packets written.
func (pw *Writer) Count() int64 { return pw.count }

// Record is one parsed capture record.
type Record struct {
	At   units.Time
	Data []byte
}

// Read parses a pcap stream written by this package (little-endian,
// microsecond resolution) — used by tests and tooling.
func Read(r io.Reader) ([]Record, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magicMicros {
		return nil, fmt.Errorf("pcap: bad magic %#x", binary.LittleEndian.Uint32(hdr[0:]))
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:]); lt != linkTypeEther {
		return nil, fmt.Errorf("pcap: unsupported link type %d", lt)
	}
	var out []Record
	for {
		var rh [16]byte
		if _, err := io.ReadFull(r, rh[:]); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("pcap: reading record header: %w", err)
		}
		sec := binary.LittleEndian.Uint32(rh[0:])
		usec := binary.LittleEndian.Uint32(rh[4:])
		capLen := binary.LittleEndian.Uint32(rh[8:])
		if capLen > maxSnapLen {
			return nil, fmt.Errorf("pcap: oversized record (%d bytes)", capLen)
		}
		data := make([]byte, capLen)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("pcap: reading record body: %w", err)
		}
		at := units.Time(sec)*units.Second + units.Time(usec)*units.Microsecond
		out = append(out, Record{At: at, Data: data})
	}
}
