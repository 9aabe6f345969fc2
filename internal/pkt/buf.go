// Package pkt provides packet buffers, a free-list pool, and from-scratch
// Ethernet/IPv4/UDP header parsing and serialization.
//
// Buffers are single-owner: whichever component holds a *Buf is responsible
// for eventually freeing it (or handing it off). Copies — the expensive
// operation that vhost-user imposes and ptnet avoids — are always explicit.
//
// # Lazy backing
//
// Synthetic generator frames are identical per (FrameSpec, flow), so a Buf
// can carry a shared *Template instead of bytes of its own, and a pool
// buffer owns no byte storage at all until somebody writes to it: Get,
// SetTemplate, SetLen, View on a template-backed frame, and CopyFrom/Clone
// from an unbacked source move only metadata. Bytes() — the accessor for
// anything that edits real bytes (probe stamping, header rewrites) —
// attaches backing from the pool's data slabs on first use and copies the
// template image in; the backing then stays with the buffer across
// Free/Get. Read-only inspection goes through View(). Simulated cycle cost
// is charged by the components exactly as before — host bytes moving (or
// not) is invisible to the simulation.
//
// A buffer with neither template nor backing has never been written and
// reads as zeros (fresh backing is zeroed); a recycled backed buffer reads
// whatever its previous owner left, as a DPDK mbuf would.
package pkt

import (
	"fmt"
	"sync/atomic"

	"repro/internal/units"
)

// Buf is one packet buffer plus simulation metadata.
type Buf struct {
	data []byte // backing storage (pool.bufSize bytes), nil until first written
	len  int    // frame length

	// tmpl, when non-nil, is the frame image this buffer logically
	// contains; data[:len] is stale until materialize copies it in.
	tmpl *Template

	// Seq is a generator-assigned sequence number.
	Seq uint64
	// Probe marks latency-measurement (PTP) packets.
	Probe bool
	// more is how many further frames, identical to this one and leaving
	// back to back behind it, the buffer stands for (see Run); it sits in
	// Probe's padding, so a Buf stays 96 bytes.
	more int32
	// TxStamp is the probe's transmit timestamp: hardware (taken by the
	// NIC as the frame hits the wire) in p2p/loopback runs, software
	// (taken by the generator) in v2v runs.
	TxStamp units.Time
	// Ingress is the time the frame finished arriving at the last
	// receiving port (hardware RX timestamp).
	Ingress units.Time
	// AvailAt gates visibility to the next consumer (virtio guest
	// notification delay); zero means immediately visible.
	AvailAt units.Time

	pool   *Pool
	inPool bool
}

// Bytes returns the frame contents for reading and writing, attaching
// backing storage and copying the template image in first where needed.
func (b *Buf) Bytes() []byte {
	if b.tmpl != nil || b.data == nil {
		b.materialize()
	}
	return b.data[:b.len]
}

// View returns the frame contents for read-only inspection without forcing
// backing: a template-backed buffer exposes the shared image directly.
// Callers must not write through the returned slice — header parsing, MAC
// learning, and flow-key extraction belong here; rewrites go through
// Bytes(). (A buffer whose logical length outgrew its template image, or
// that has neither template nor backing, falls back to materializing, so
// the zero-extension is real.)
func (b *Buf) View() []byte {
	if b.tmpl != nil && b.len <= len(b.tmpl.data) {
		return b.tmpl.data[:b.len]
	}
	return b.Bytes()
}

// Template returns the shared frame image backing b, or nil once the
// buffer has been materialized.
func (b *Buf) Template() *Template { return b.tmpl }

// materialize gives the buffer bytes of its own: backing storage if it has
// none yet, then the template image (one memcpy; the template is
// pre-serialized). Lengths can disagree only after an explicit SetLen on a
// lazy buffer; the image is truncated or zero-extended to match, mirroring
// what Build-then-SetLen would have produced.
func (b *Buf) materialize() {
	if b.data == nil && b.pool != nil { // a pool-less buffer has capacity 0
		b.data = b.pool.backing()
	}
	if t := b.tmpl; t != nil {
		b.tmpl = nil
		n := copy(b.data[:b.len], t.data)
		clear(b.data[n:b.len])
	}
}

// Materialized reports whether the frame's contents are the buffer's own
// (false while it only references a Template). An unwritten buffer counts:
// its contents are zeros that no storage holds yet.
func (b *Buf) Materialized() bool { return b.tmpl == nil }

// SetTemplate makes b a metadata-only frame whose logical contents are t's
// image. No bytes move until someone calls Bytes().
func (b *Buf) SetTemplate(t *Template) {
	b.SetLen(len(t.data))
	b.tmpl = t
}

// Len returns the frame length in bytes.
func (b *Buf) Len() int { return b.len }

// SetLen resizes the frame within the buffer's capacity — the pool's buffer
// size, whether or not backing is attached yet.
func (b *Buf) SetLen(n int) {
	if n < 0 || n > b.capacity() {
		panic(fmt.Sprintf("pkt: SetLen(%d) outside capacity %d", n, b.capacity()))
	}
	b.len = n
}

func (b *Buf) capacity() int {
	if b.pool == nil {
		return 0
	}
	return b.pool.bufSize
}

// CopyFrom replaces b's contents and metadata with src's. This is the
// primitive behind vhost-user's per-packet copies. If src is still
// template-backed, only the template reference moves — the simulated copy
// cost is charged by the caller either way; host bytes are not part of the
// simulation. Real bytes move only from a source that has some: an
// unwritten source (no template, no backing) leaves b an all-zero frame
// without attaching storage to either side.
func (b *Buf) CopyFrom(src *Buf) {
	b.SetLen(src.len)
	b.tmpl = src.tmpl
	switch {
	case src.tmpl != nil: // only the reference moved
	case src.data != nil:
		b.materialize()
		copy(b.data[:src.len], src.data[:src.len])
	case b.data != nil:
		clear(b.data[:src.len])
	}
	b.Seq = src.Seq
	b.Probe = src.Probe
	b.TxStamp = src.TxStamp
	b.Ingress = src.Ingress
	b.AvailAt = src.AvailAt
}

// Run returns how many identical frames b stands for: 1 for an ordinary
// buffer, n for a run — frames that left a generator back to back with
// consecutive sequence numbers, carried through a NIC as one buffer so that
// frames its full RX ring drops never become buffers (nic.Port.SendRunAt).
// Only the NIC sees runs; every buffer it hands out is a run of one.
func (b *Buf) Run() int { return int(b.more) + 1 }

// SetRun makes b stand for n ≥ 1 frames.
func (b *Buf) SetRun(n int) { b.more = int32(n - 1) }

// Follows reports whether b can extend the run r: the same template-backed,
// non-probe frame from the same pool, numbered right after r's last frame.
// Arrival times are the caller's to check.
func (b *Buf) Follows(r *Buf) bool {
	return b.tmpl != nil && b.tmpl == r.tmpl && b.len == r.len && b.pool == r.pool &&
		!b.Probe && !r.Probe && b.TxStamp == r.TxStamp && b.AvailAt == r.AvailAt &&
		b.Seq == r.Seq+uint64(r.Run())
}

// Twin returns a new buffer from b's pool holding b's first frame: b's
// contents and metadata, a run of one.
func (b *Buf) Twin() *Buf { return b.pool.Clone(b) }

// Free returns the buffer to its pool. Freeing a pool-less buffer is a no-op;
// double frees panic.
func (b *Buf) Free() {
	if b.pool != nil {
		b.pool.put(b)
	}
}

// Template is an immutable, pre-serialized frame image shared by every
// lazy buffer of one (FrameSpec, flow) pair. Building it costs one full
// header serialization; every frame emitted against it afterwards costs
// nothing until (unless) its bytes are inspected.
type Template struct {
	data []byte
	id   uint64
}

// templateIDs hands out process-unique template identities. Atomic because
// campaign workers build templates for different cells concurrently; the
// counter's order is irrelevant — only uniqueness matters.
var templateIDs atomic.Uint64

// NewTemplate wraps data (which the caller must never mutate afterwards)
// as a frame image with a fresh identity.
func NewTemplate(data []byte) *Template {
	return &Template{data: data, id: templateIDs.Add(1)}
}

// ID returns the template's process-unique, always-nonzero identity.
// Frames sharing a template are byte-identical, so the switch data planes
// key their classification memos on it.
func (t *Template) ID() uint64 { return t.id }

// Len returns the image's frame length.
func (t *Template) Len() int { return len(t.data) }

// Image returns a copy of the frame image (diagnostics/tests; the shared
// image itself must never be handed out mutable).
func (t *Template) Image() []byte {
	out := make([]byte, len(t.data))
	copy(out, t.data)
	return out
}

// Derive returns a new template whose image is t's with edit applied.
// This is how a VNF's deterministic header rewrite (l2fwd's MAC swap)
// stays template-backed: the edit runs once per distinct input template
// and every subsequent frame moves only its template pointer.
func (t *Template) Derive(edit func(data []byte)) *Template {
	data := make([]byte, len(t.data))
	copy(data, t.data)
	edit(data)
	return NewTemplate(data)
}

// Pool is a free list of equal-capacity buffers. It grows on demand so that
// component buffering limits (rings) — not the pool — bound memory use.
// Growth carves buffer headers, and separately the backing of those buffers
// that are ever written, out of slab allocations (DPDK mempool style) so
// warming a pool to its high-water mark costs a handful of allocations,
// not one per buffer — and no bytes for frames nobody writes.
type Pool struct {
	free    []*Buf
	bufSize int
	live    int // checked-out buffers
	total   int // ever allocated
	backed  int // buffers given backing from slabData

	slabData []byte // unclaimed backing storage
	slabBufs []Buf  // unclaimed headers
}

// slabCount is how many buffers each slab allocation provides. Data slabs
// ramp up to it geometrically from minDataSlab: most pools back only the
// occasional probe frame, some back every buffer.
const (
	slabCount   = 256
	minDataSlab = 16
)

// NewPool returns a pool of buffers with the given capacity each.
func NewPool(bufSize int) *Pool {
	if bufSize <= 0 {
		panic("pkt: non-positive buffer size")
	}
	return &Pool{bufSize: bufSize}
}

// Get returns a zero-metadata buffer of the given frame length.
func (p *Pool) Get(frameLen int) *Buf {
	if frameLen > p.bufSize {
		panic(fmt.Sprintf("pkt: frame %dB exceeds pool buffer size %dB", frameLen, p.bufSize))
	}
	var b *Buf
	if n := len(p.free); n > 0 {
		b = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		if len(p.slabBufs) == 0 {
			p.slabBufs = make([]Buf, slabCount)
		}
		b = &p.slabBufs[0]
		p.slabBufs = p.slabBufs[1:]
		b.pool = p
		p.total++
	}
	p.live++
	b.inPool = false
	b.len = frameLen
	b.tmpl = nil
	b.Seq = 0
	b.Probe = false
	b.more = 0
	b.TxStamp = 0
	b.Ingress = 0
	b.AvailAt = 0
	return b
}

// backing returns bufSize bytes of zeroed storage for a buffer's first
// write, carved from a data slab as large as everything carved before it
// (within [minDataSlab, slabCount] buffers).
func (p *Pool) backing() []byte {
	if len(p.slabData) == 0 {
		p.slabData = make([]byte, min(max(p.backed, minDataSlab), slabCount)*p.bufSize)
	}
	d := p.slabData[:p.bufSize:p.bufSize]
	p.slabData = p.slabData[p.bufSize:]
	p.backed++
	return d
}

// Clone returns a pool buffer holding a copy of src (metadata-only if src
// is still template-backed).
func (p *Pool) Clone(src *Buf) *Buf {
	b := p.Get(src.len)
	b.CopyFrom(src)
	return b
}

func (p *Pool) put(b *Buf) {
	if b.inPool {
		panic("pkt: double free")
	}
	b.inPool = true
	b.tmpl = nil // drop the template reference while parked
	p.live--
	p.free = append(p.free, b)
}

// Trim releases free-list buffers beyond max, letting the GC reclaim their
// backing storage. Without it the free list pins every buffer a cell ever
// allocated (its high-water mark) for the life of the pool; callers that
// finish a measurement release the pool with Trim(0).
func (p *Pool) Trim(max int) {
	if max < 0 {
		max = 0
	}
	if len(p.free) <= max {
		return
	}
	for i := max; i < len(p.free); i++ {
		p.free[i] = nil
	}
	p.free = p.free[:max]
	if max == 0 {
		p.free = nil // release the spine too
		p.slabData, p.slabBufs = nil, nil
	}
}

// Live returns the number of buffers currently checked out. The count is
// exact at every instant: Get and Free update it in place.
func (p *Pool) Live() int { return p.live }

// Allocated returns the number of buffers ever created by the pool.
func (p *Pool) Allocated() int { return p.total }

// Idle returns the number of buffers parked on the free list.
func (p *Pool) Idle() int { return len(p.free) }
