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
// can carry a shared *Template instead of bytes of its own — one per
// process: tgen's store builds each image once and every cell reads it —
// and a pool buffer owns no byte storage at all until somebody writes to
// it: Get, SetTemplate, SetLen, MarkProbe, View on a template-backed
// frame, and CopyFrom/Clone from an unbacked source move only metadata. Bytes() — the
// accessor for anything that edits real bytes (header rewrites) — attaches
// backing from the pool's data slabs on first use and copies the template
// image in; the backing then stays with the buffer across Free/Get.
// Read-only inspection of headers goes through View(). A template also
// records how far its image's headers parse — a one-byte Layout
// (Ethernet, 802.1Q tag, valid IPv4, L4 ports) that ParseLayout computes
// once where the image is built — so a header reader such as OvS's flow
// key takes each field at the offset the verdict implies instead of
// parsing, and checksumming, every frame.
//
// A latency probe's stamp is metadata too: MarkProbe on a template-backed
// frame records Seq, TxStamp and whether the payload carries that TxStamp
// or 0, and the stamp bytes exist only once something materializes the
// frame — Bytes() writes them right after the template image, and
// AppendTo renders them for a capture without touching the buffer. So a
// probe crosses the whole testbed as cheaply as the frames around it;
// View() on it shows the template image, stamp-free, which is all a
// header parser reads. Simulated cycle cost is charged by the components
// exactly as before — host bytes moving (or not) is invisible to the
// simulation.
//
// A buffer with neither template nor backing has never been written and
// reads as zeros (fresh backing is zeroed); a recycled backed buffer reads
// whatever its previous owner left, as a DPDK mbuf would.
//
// # Leased pools
//
// Like a DPDK mempool, which is allocated once and serves every later run,
// a pool outlives the simulation it serves: AcquirePool leases one from a
// process-wide stack of released pools, and Release rewinds it in O(1) and
// puts it back. A rewound pool carves its buffers out of the header slabs
// it already holds, each header keeping the backing it was given, so the
// next cell on it allocates only past the high-water mark of the last.
package pkt

import (
	"fmt"
	"sync"

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
	Probe  bool
	inPool bool
	// stamp is the probe payload MarkProbe set (see stampKind), written
	// over the template image whenever the frame materializes.
	stamp stampKind
	// more is how many further frames, identical to this one and leaving
	// back to back behind it, the buffer stands for (see Run). It and
	// stamp sit in Probe's padding, so a Buf stays 96 bytes.
	more int32
	// TxStamp is the probe's transmit timestamp: hardware (taken by the
	// NIC as the frame hits the wire) in p2p/loopback runs, software
	// (taken by the generator) in v2v runs.
	TxStamp units.Time
	// Ingress is the time the frame finished arriving at the last
	// receiving port (hardware RX timestamp).
	Ingress units.Time
	// Gap is the wire time of one frame on the link the buffer last left
	// by: the spacing of a run's arrivals (see Run).
	Gap units.Time
	// AvailAt gates visibility to the next consumer (virtio guest
	// notification delay); zero means immediately visible.
	AvailAt units.Time

	pool *Pool
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
// Bytes(). A template-backed probe's view is the image without its stamp,
// which sits past every header. (A buffer whose logical length outgrew its
// template image, or that has neither template nor backing, falls back to
// materializing, so the zero-extension is real.)
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
// pre-serialized) with a probe's stamp over it. Lengths can disagree only
// after an explicit SetLen on a lazy buffer; the image is truncated or
// zero-extended to match, mirroring what Build-then-SetLen would have
// produced.
func (b *Buf) materialize() {
	if b.data == nil && b.pool != nil { // a pool-less buffer has capacity 0
		b.data = b.pool.backing()
	}
	if t := b.tmpl; t != nil {
		b.tmpl = nil
		b.render(b.data[:b.len], t)
	}
}

// render writes the frame contents of template-backed b, t's image
// truncated or zero-extended to len(p) with b's probe stamp over it, into
// p.
func (b *Buf) render(p []byte, t *Template) {
	n := copy(p, t.data)
	clear(p[n:])
	b.writeStamp(p)
}

// AppendTo appends the frame contents, as Bytes() would return them, to
// dst without changing b: no backing is attached and a template-backed
// frame stays one. This is how a capture renders a lazy probe's stamp.
func (b *Buf) AppendTo(dst []byte) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, b.len)...)
	switch p := dst[n:]; {
	case b.tmpl != nil:
		b.render(p, b.tmpl)
	case b.data != nil:
		copy(p, b.data[:b.len])
	}
	return dst
}

// Materialized reports whether the frame's contents are the buffer's own
// (false while it only references a Template). An unwritten buffer counts:
// its contents are zeros that no storage holds yet.
func (b *Buf) Materialized() bool { return b.tmpl == nil }

// SetTemplate makes b a metadata-only frame whose logical contents are t's
// image, with b's probe stamp, if it has one, over it. No bytes move until
// someone calls Bytes().
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

// CopyFrom replaces b's contents and metadata, its run included, with
// src's. This is the primitive behind vhost-user's per-packet copies and
// VALE's per-hop ones. If src is still
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
	b.stamp = src.stamp
	b.more = src.more
	b.TxStamp = src.TxStamp
	b.Ingress = src.Ingress
	b.Gap = src.Gap
	b.AvailAt = src.AvailAt
}

// Run returns how many identical frames b stands for: 1 for an ordinary
// buffer, n for a run — frames that left a port back to back with
// consecutive sequence numbers, frame i numbered Seq+i and arriving at
// Ingress + i·Gap, carried as one buffer from the generator through the
// NIC and the switch data plane (nic.Port.SendRunAt), so that frames a
// full ring drops, and frames forwarded alike, never become buffers of
// their own. Devices whose rings hold single frames (vhost, ptnet, the
// multi-core handoff rings) split runs with Cut.
func (b *Buf) Run() int { return int(b.more) + 1 }

// SetRun makes b stand for n ≥ 1 frames.
func (b *Buf) SetRun(n int) { b.more = int32(n - 1) }

// Frames returns how many frames the buffers stand for: the sum of their
// runs.
func Frames(bufs []*Buf) int {
	n := 0
	for _, b := range bufs {
		n += b.Run()
	}
	return n
}

// Follows reports whether b can extend the run r: the same template-backed,
// non-probe frame from the same pool, numbered right after r's last frame.
// Arrival times are the caller's to check.
func (b *Buf) Follows(r *Buf) bool {
	return b.tmpl != nil && b.tmpl == r.tmpl && b.len == r.len && b.pool == r.pool &&
		!b.Probe && !r.Probe && b.TxStamp == r.TxStamp && b.AvailAt == r.AvailAt &&
		b.Seq == r.Seq+uint64(r.Run())
}

// Cut splits the run b after its first m frames (0 < m < b.Run()): it
// returns them as a new buffer from b's pool, and b keeps the rest (Skip).
func (b *Buf) Cut(m int) *Buf {
	head := b.pool.Clone(b)
	head.SetRun(m)
	b.Skip(m)
	return head
}

// Skip drops the first m frames (0 < m < b.Run()) of the run b: b then
// stands for the frames after them, numbered and timed on from them.
func (b *Buf) Skip(m int) {
	if m <= 0 || m >= b.Run() {
		panic(fmt.Sprintf("pkt: cutting %d frames off a run of %d", m, b.Run()))
	}
	b.Seq += uint64(m)
	b.Ingress += units.Time(m) * b.Gap
	b.more -= int32(m)
}

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
// nothing until (unless) its bytes are inspected. It also carries its
// image's Layout, parsed once where the image is built, so a header reader
// takes the fields straight from the image.
type Template struct {
	data   []byte
	layout Layout
}

// NewTemplate wraps data (which the caller must never mutate afterwards)
// as a frame image, parsing its Layout.
func NewTemplate(data []byte) *Template {
	return &Template{data: data, layout: ParseLayout(data)}
}

// Layout returns how far the image's headers parse: ParseLayout of the
// image, computed when the template was built.
func (t *Template) Layout() Layout { return t.layout }

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
//
// A pool serves one lease at a time: from NewPool or AcquirePool until
// Release. Release forgets every buffer of the lease, handed out or
// parked, and keeps the slabs, so the next lease carves the same headers
// again, in the same order, before it allocates a new slab.
type Pool struct {
	free    []*Buf
	bufSize int
	live    int // checked-out buffers
	carved  int // headers carved in this lease
	backed  int // buffers given backing from slabData, in any lease

	slabData []byte // unclaimed backing storage
	shelved  bool   // on the released stack (guarded by its lock)

	// The header slabs the pool holds, linked from slabs; cur is the one
	// being carved (nil until the lease's first carve) and next its first
	// unclaimed header.
	slabs *slab
	cur   *slab
	next  int
}

// slab is one allocation of buffer headers. Its link to the next slab
// takes the room of the 256th header, so that a slab still fills one
// 24 KiB allocation size class on 64-bit hosts.
type slab struct {
	bufs [slabCount - 1]Buf
	link *slab
}

// slabCount is how many buffers a data slab provides at most, and a
// header slab one fewer (see slab). Data slabs ramp up to it geometrically
// from minDataSlab: most pools back only the occasional probe frame, some
// back every buffer.
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

// released is the process-wide stack of released pools.
var released struct {
	sync.Mutex
	pools []*Pool
}

// AcquirePool leases a pool of buffers with the given capacity each: the
// most recently released one of that size, or else a new one. A caller
// that releases its pools in the reverse of the order it acquired them
// gets each back in the same role the next time it acquires in that order.
func AcquirePool(bufSize int) *Pool {
	released.Lock()
	defer released.Unlock()
	for i := len(released.pools) - 1; i >= 0; i-- {
		if p := released.pools[i]; p.bufSize == bufSize {
			released.pools = append(released.pools[:i], released.pools[i+1:]...)
			p.shelved = false
			return p
		}
	}
	return NewPool(bufSize)
}

// Release ends the pool's lease and puts it on the stack AcquirePool
// takes from. Every buffer the lease handed out, live or parked, stops
// belonging to anyone: the caller must hold none that it still uses. The
// free list empties but keeps its capacity, the carve rewinds to the first
// header slab, and Live and Allocated restart at 0. Release walks no
// buffer. Releasing a pool twice panics: two leases would share it.
func (p *Pool) Release() {
	released.Lock()
	defer released.Unlock()
	if p.shelved {
		panic("pkt: pool released twice")
	}
	p.free = p.free[:0]
	p.cur, p.next = nil, 0
	p.live, p.carved = 0, 0
	p.shelved = true
	released.pools = append(released.pools, p)
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
		b = p.carve()
	}
	p.live++
	b.inPool = false
	b.len = frameLen
	b.tmpl = nil
	b.Seq = 0
	b.Probe = false
	b.stamp = stampNone
	b.more = 0
	b.TxStamp = 0
	b.Ingress = 0
	b.Gap = 0
	b.AvailAt = 0
	return b
}

// carve returns the lease's next unclaimed header: the next one of the
// slabs the pool holds, or of a new slab linked behind them.
func (p *Pool) carve() *Buf {
	if p.cur == nil || p.next == len(p.cur.bufs) {
		link := &p.slabs
		if p.cur != nil {
			link = &p.cur.link
		}
		if *link == nil {
			*link = new(slab)
		}
		p.cur, p.next = *link, 0
	}
	b := &p.cur.bufs[p.next]
	p.next++
	p.carved++
	b.pool = p
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

// Clone returns a pool buffer holding a copy of src, its run included
// (metadata-only if src is still template-backed).
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

// Live returns the number of buffers currently checked out. The count is
// exact at every instant: Get and Free update it in place.
func (p *Pool) Live() int { return p.live }

// Allocated returns the number of buffer headers the lease has carved:
// those it has handed out, counting each once however often it was
// recycled.
func (p *Pool) Allocated() int { return p.carved }

// Cap returns the number of buffer headers the pool holds: its slabs'
// headers, carved in this lease or kept from an earlier one.
func (p *Pool) Cap() int {
	n := 0
	for s := p.slabs; s != nil; s = s.link {
		n += len(s.bufs)
	}
	return n
}

// Idle returns the number of buffers parked on the free list.
func (p *Pool) Idle() int { return len(p.free) }
