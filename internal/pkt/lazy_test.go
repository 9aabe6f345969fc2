package pkt

import (
	"bytes"
	"testing"
	"unsafe"
)

func lazySpec(frameLen int) FrameSpec {
	return FrameSpec{
		SrcMAC: MAC{2, 0, 0, 0, 0, 1}, DstMAC: MAC{2, 0, 0, 0, 0, 2},
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 1234, DstPort: 5678, FrameLen: frameLen,
	}
}

// TestTemplateMatchesBuild pins the lazy path to the eager one: a
// template-backed buffer must read back byte-for-byte what Build writes,
// for every frame size and flow index the generators use.
func TestTemplateMatchesBuild(t *testing.T) {
	p := NewPool(2048)
	for _, frameLen := range []int{64, 570, 1518} {
		for _, flow := range []int{0, 1, 7, 300} {
			spec := lazySpec(frameLen)
			eager := p.Get(frameLen)
			spec.Build(eager)
			if flow != 0 {
				PatchFlow(eager, spec, flow)
			}
			lazy := p.Get(frameLen)
			lazy.SetTemplate(spec.Template(flow))
			if lazy.Materialized() {
				t.Fatalf("len=%d flow=%d: buffer materialized before first read", frameLen, flow)
			}
			if !bytes.Equal(lazy.Bytes(), eager.Bytes()) {
				t.Fatalf("len=%d flow=%d: template bytes differ from Build+PatchFlow", frameLen, flow)
			}
			if !lazy.Materialized() {
				t.Fatalf("len=%d flow=%d: Bytes did not materialize", frameLen, flow)
			}
			eager.Free()
			lazy.Free()
		}
	}
}

// TestLazyCopyPropagatesTemplate verifies that copying an unmaterialized
// buffer moves only the template reference (the vhost copy path), that the
// copy still reads the right bytes, and that materializing the copy leaves
// the source lazy.
func TestLazyCopyPropagatesTemplate(t *testing.T) {
	p := NewPool(2048)
	spec := lazySpec(64)
	tmpl := spec.Template(0)

	src := p.Get(64)
	src.SetTemplate(tmpl)
	src.Seq = 42

	dst := p.Clone(src)
	if dst.Materialized() {
		t.Fatal("clone of a lazy buffer materialized")
	}
	if dst.Seq != 42 || dst.Len() != 64 {
		t.Fatalf("clone metadata = seq %d len %d", dst.Seq, dst.Len())
	}
	if !bytes.Equal(dst.Bytes(), tmpl.Image()) {
		t.Fatal("clone bytes differ from template image")
	}
	if src.Materialized() {
		t.Fatal("materializing the clone materialized the source")
	}

	// Mutating the materialized clone must not leak into the shared image.
	dst.Bytes()[EthHdrLen] = 0xFF
	if src.Bytes()[EthHdrLen] == 0xFF {
		t.Fatal("clone write corrupted the shared template")
	}

	// Copying a materialized buffer still copies real bytes.
	dst2 := p.Clone(dst)
	if !dst2.Materialized() {
		t.Fatal("clone of a materialized buffer stayed lazy")
	}
	if dst2.Bytes()[EthHdrLen] != 0xFF {
		t.Fatal("materialized clone lost its bytes")
	}
}

// TestLazyProbeMarkMaterializes checks that probe stamping — which writes
// into the payload — forces materialization and leaves the rest of the
// frame equal to the template image.
func TestLazyProbeMarkMaterializes(t *testing.T) {
	p := NewPool(2048)
	spec := lazySpec(64)
	b := p.Get(64)
	b.SetTemplate(spec.Template(0))
	MarkProbe(b, 7, 1000)
	if !b.Materialized() {
		t.Fatal("MarkProbe left the buffer lazy")
	}
	seq, tx, ok := ProbeInfo(b)
	if !ok || seq != 7 || tx != 1000 {
		t.Fatalf("probe = (%d, %v, %v)", seq, tx, ok)
	}
	// Headers must still come from the template image.
	eth, err := ParseEth(b.Bytes())
	if err != nil || eth.Src != spec.SrcMAC {
		t.Fatalf("eth after probe = %+v, %v", eth, err)
	}
}

// TestPoolGetResetsTemplate guards against a recycled buffer resurrecting
// the previous owner's template.
func TestPoolGetResetsTemplate(t *testing.T) {
	p := NewPool(2048)
	b := p.Get(64)
	b.SetTemplate(lazySpec(64).Template(0))
	b.Free()
	b2 := p.Get(64)
	if !b2.Materialized() {
		t.Fatal("recycled buffer still template-backed")
	}
}

// TestPoolTrim exercises the free-list release path.
func TestPoolTrim(t *testing.T) {
	p := NewPool(2048)
	bufs := make([]*Buf, 8)
	for i := range bufs {
		bufs[i] = p.Get(64)
	}
	for _, b := range bufs {
		b.Free()
	}
	if p.Idle() != 8 {
		t.Fatalf("idle = %d, want 8", p.Idle())
	}
	p.Trim(3)
	if p.Idle() != 3 {
		t.Fatalf("after Trim(3): idle = %d, want 3", p.Idle())
	}
	p.Trim(5) // larger than the free list: no-op
	if p.Idle() != 3 {
		t.Fatalf("after Trim(5): idle = %d, want 3", p.Idle())
	}
	p.Trim(0)
	if p.Idle() != 0 {
		t.Fatalf("after Trim(0): idle = %d, want 0", p.Idle())
	}
	// The pool still works after a full release.
	b := p.Get(128)
	if b.Len() != 128 {
		t.Fatalf("post-trim Get len = %d", b.Len())
	}
	b.Free()
	if p.Live() != 0 {
		t.Fatalf("live = %d, want 0", p.Live())
	}
}

// BenchmarkMaterialize compares the eager per-frame serialization the
// generators used to pay against the lazy template path (stamp only) and
// the worst case for laziness (stamp plus an immediate read).
func BenchmarkMaterialize(b *testing.B) {
	p := NewPool(2048)
	spec := lazySpec(64)
	tmpl := spec.Template(0)
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := p.Get(64)
			spec.Build(buf)
			buf.Free()
		}
	})
	b.Run("template", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := p.Get(64)
			buf.SetTemplate(tmpl)
			buf.Free()
		}
	})
	b.Run("template+read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := p.Get(64)
			buf.SetTemplate(tmpl)
			_ = buf.Bytes()[0]
			buf.Free()
		}
	})
}

// TestViewDoesNotMaterialize pins the read-only fast path: View on a
// template-backed buffer exposes the shared image without materializing,
// and falls back to Bytes when the frame is longer than the image
// (zero-extension).
func TestViewDoesNotMaterialize(t *testing.T) {
	p := NewPool(2048)
	spec := lazySpec(64)
	b := p.Get(64)
	b.SetTemplate(spec.Template(0))
	v := b.View()
	if b.Materialized() || b.data != nil {
		t.Fatal("View materialized the buffer")
	}
	if !bytes.Equal(v, spec.Template(0).Image()) {
		t.Fatal("View bytes differ from the template image")
	}
	// A frame grown past the template image (the fastclick unstrip path)
	// must take the materialize path so the zero-extended tail is real.
	long := p.Get(1518)
	long.SetTemplate(spec.Template(0))
	long.SetLen(1518) // 64B image under a 1518B frame
	lv := long.View()
	if len(lv) != 1518 {
		t.Fatalf("long view = %dB", len(lv))
	}
	if !long.Materialized() {
		t.Fatal("oversized View did not materialize")
	}
	if !bytes.Equal(lv[:64], spec.Template(0).Image()) || !bytes.Equal(lv[64:], make([]byte, 1518-64)) {
		t.Fatal("oversized View is not the zero-extended image")
	}
	b.Free()
	long.Free()
}

// TestTemplateDerive checks that a derived template reads back exactly
// what edit wrote, without touching the parent image.
func TestTemplateDerive(t *testing.T) {
	spec := lazySpec(64)
	parent := spec.Template(0)
	before := append([]byte(nil), parent.Image()...)
	d := parent.Derive(func(data []byte) {
		SetEthSrc(data, MAC{2, 0xAA, 0, 0, 0, 1})
	})
	if !bytes.Equal(parent.Image(), before) {
		t.Fatal("Derive mutated the parent template")
	}
	if EthSrc(d.Image()) != (MAC{2, 0xAA, 0, 0, 0, 1}) {
		t.Fatal("derived image missing the edit")
	}
	if !bytes.Equal(d.Image()[EthHdrLen:], parent.Image()[EthHdrLen:]) {
		t.Fatal("derived image diverged beyond the edit")
	}
}

// TestTemplateTrafficAttachesNoBacking pins the point of lazy backing: the
// whole life of a template-backed frame — Get, SetTemplate, the vhost
// CopyFrom, Clone, read-only View and ProbeInfo, Free — over a warm pool
// attaches no storage to any buffer and allocates nothing.
func TestTemplateTrafficAttachesNoBacking(t *testing.T) {
	p := NewPool(2048)
	tmpl := lazySpec(64).Template(0)
	const inFlight = 64
	var held [inFlight]*Buf
	cycle := func() {
		for i := range held {
			b := p.Get(64)
			b.SetTemplate(tmpl)
			held[i] = b
		}
		for _, src := range held {
			dst := p.Get(src.Len())
			dst.CopyFrom(src)
			c := p.Clone(dst)
			if _, _, ok := ProbeInfo(c); ok || len(c.View()) != 64 {
				t.Fatal("template frame misread")
			}
			c.Free()
			dst.Free()
			src.Free()
		}
	}
	cycle() // warm the pool to its high-water mark
	if avg := testing.AllocsPerRun(10000/inFlight, cycle); avg != 0 {
		t.Fatalf("template-only traffic allocates %.2f times per %d frames", avg, inFlight)
	}
	if p.backed != 0 || p.slabData != nil {
		t.Fatalf("template-only traffic carved backing for %d buffers", p.backed)
	}
	for _, b := range p.free {
		if b.data != nil {
			t.Fatal("a template-only buffer holds backing")
		}
	}
}

// TestMaterializeAfterReuse checks that backing stays with a buffer across
// Free/Get and that a later materialization over it returns the new
// template's image, truncated or zero-extended to the frame length, with
// nothing of the previous frame showing through.
func TestMaterializeAfterReuse(t *testing.T) {
	p := NewPool(2048)
	b := p.Get(1518)
	b.SetTemplate(lazySpec(1518).Template(0))
	for i, v := range b.Bytes() { // dirty the whole backing
		b.Bytes()[i] = v | 0x80
	}
	b.Free()

	img := lazySpec(64).Template(3).Image()
	for _, n := range []int{64, 40, 200} {
		b = p.Get(64)
		b.SetTemplate(lazySpec(64).Template(3))
		b.SetLen(n)
		got := b.Bytes()
		if len(got) != n {
			t.Fatalf("len %d: got %dB", n, len(got))
		}
		want := make([]byte, n)
		copy(want, img)
		if !bytes.Equal(got, want) {
			t.Fatalf("len %d: materialized bytes are not the truncated/zero-extended image", n)
		}
		b.Free()
	}
	if p.backed != 1 || p.Allocated() != 1 {
		t.Fatalf("reuse carved backing %d times for %d buffers", p.backed, p.Allocated())
	}
}

// TestAllBackedPoolAllocations bounds the other extreme: a pool whose every
// buffer is written pays ceil(n/256) data slabs plus the five-slab ramp
// below 256 buffers, on top of the header slabs and the pool itself — never
// an allocation per buffer.
func TestAllBackedPoolAllocations(t *testing.T) {
	const n = 1000
	var held [n]*Buf
	avg := testing.AllocsPerRun(5, func() {
		p := NewPool(2048)
		for i := range held {
			held[i] = p.Get(64)
			held[i].Bytes()[0] = 1
		}
	})
	slabs := (n + slabCount - 1) / slabCount
	if limit := float64(1 + slabs + slabs + 5); avg > limit {
		t.Fatalf("%d written buffers cost %.0f allocations, want <= %.0f", n, avg, limit)
	}
}

// TestUnwrittenBufferEdges pins what lazy backing defines for a buffer that
// has neither template nor backing: it is an all-zero frame of its length.
func TestUnwrittenBufferEdges(t *testing.T) {
	p := NewPool(256)

	// Copying from it moves no bytes and attaches nothing...
	src := p.Get(64)
	src.Seq = 9
	dst := p.Clone(src)
	if src.data != nil || dst.data != nil || dst.Seq != 9 || dst.Len() != 64 {
		t.Fatal("clone of an unwritten buffer attached backing or lost metadata")
	}
	// ...and over a destination with stale bytes it reads back as zeros.
	dirty := p.Get(64)
	for i := range dirty.Bytes() {
		dirty.Bytes()[i] = 0xAB
	}
	dirty.CopyFrom(src)
	if !bytes.Equal(dirty.Bytes(), make([]byte, 64)) {
		t.Fatal("copy of an unwritten buffer left stale bytes")
	}

	// SetLen is bounded by the pool's buffer size with or without backing.
	src.SetLen(256)
	if src.data != nil {
		t.Fatal("SetLen attached backing")
	}
	if got := src.View(); len(got) != 256 || !bytes.Equal(got, make([]byte, 256)) {
		t.Fatal("grown unwritten buffer is not 256 zero bytes")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetLen past the pool buffer size did not panic")
			}
		}()
		p.Get(64).SetLen(257)
	}()

	// Trim(0) lets go of the data slab it has not finished carving.
	if p.slabData == nil {
		t.Fatal("expected a partly carved data slab")
	}
	src.Free()
	dst.Free()
	dirty.Free()
	p.Trim(0)
	if p.slabData != nil || p.slabBufs != nil || p.Idle() != 0 {
		t.Fatal("Trim(0) kept slabs")
	}
	b := p.Get(64)
	if b.Bytes()[0] != 0 {
		t.Fatal("pool unusable after Trim(0)")
	}
}

// TestRunBuffers: a run's length lives in Buf's padding (a Buf stays 96
// bytes on 64-bit hosts), a recycled buffer is a run of one again, Twin
// copies the first frame as a run of one, and Follows accepts exactly the
// same template-backed, non-probe frame from the same pool with the next
// sequence number.
func TestRunBuffers(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Buf{}) != 96 {
		t.Fatalf("Buf is %d bytes, want 96", unsafe.Sizeof(Buf{}))
	}
	p := NewPool(2048)
	tmpl := lazySpec(64).Template(0)
	r := p.Get(64)
	r.SetTemplate(tmpl)
	r.Seq, r.Ingress = 10, 5
	r.SetRun(4)
	tw := r.Twin()
	if tw.Run() != 1 || tw.Template() != tmpl || tw.Seq != 10 || tw.Ingress != 5 || p.Live() != 2 {
		t.Fatalf("twin: run %d, seq %d, ingress %v, %d live", tw.Run(), tw.Seq, tw.Ingress, p.Live())
	}
	next := func(edit func(b *Buf)) *Buf {
		b := p.Get(64)
		b.SetTemplate(tmpl)
		b.Seq = 14
		edit(b)
		return b
	}
	if b := next(func(*Buf) {}); !b.Follows(r) {
		t.Fatal("the run's next frame does not follow it")
	}
	other := NewPool(2048).Get(64)
	other.SetTemplate(tmpl)
	other.Seq = 14
	for name, b := range map[string]*Buf{
		"sequence gap":   next(func(b *Buf) { b.Seq = 15 }),
		"other template": next(func(b *Buf) { b.SetTemplate(lazySpec(64).Template(1)) }),
		"materialized":   next(func(b *Buf) { b.Bytes() }),
		"probe":          next(func(b *Buf) { b.Probe = true }),
		"other pool":     other,
	} {
		if b.Follows(r) {
			t.Errorf("%s: follows the run", name)
		}
	}
	r.Free()
	if b := p.Get(64); b.Run() != 1 {
		t.Fatalf("recycled buffer is a run of %d", b.Run())
	}
}
