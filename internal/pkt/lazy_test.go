package pkt

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/units"
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

// TestFillTemplateFromMatchesSerialized: copying any flow's image and
// patching in another flow gives the bytes serializing that flow gives, in
// storage of its own; patching in the base's own flow changes nothing.
func TestFillTemplateFromMatchesSerialized(t *testing.T) {
	flows := []int{0, 1, 7, 255, 256, 300, 32767}
	for _, frameLen := range []int{64, 570, 1518} {
		spec := lazySpec(frameLen)
		for _, from := range flows {
			base := spec.Template(from)
			for _, flow := range flows {
				var got Template
				spec.FillTemplateFrom(&got, make([]byte, frameLen), base, flow)
				if want := spec.Template(flow); !bytes.Equal(got.data, want.data) {
					t.Fatalf("len=%d: flow %d patched from flow %d differs from serializing it", frameLen, flow, from)
				}
				if &got.data[0] == &base.data[0] {
					t.Fatalf("len=%d: patched template shares its base's image", frameLen)
				}
			}
		}
	}
}

// TestTemplateLayoutMatchesParse holds every template's Layout to
// ParseLayout of its image, however the template was made: serialized
// (FillTemplate), copied and patched from another flow's image over many
// flows (FillTemplateFrom, which copies its base's verdict unparsed),
// wrapped (NewTemplate) and derived by l2fwd's MAC rewrite (Derive); and
// on a VLAN-tagged image, one with a bad IPv4 checksum, a non-UDP/TCP one
// and images cut short inside each header, which must parse only as far
// as they go.
func TestTemplateLayoutMatchesParse(t *testing.T) {
	check := func(what string, tm *Template, want Layout) {
		t.Helper()
		if got := tm.Layout(); got != ParseLayout(tm.data) || got != want {
			t.Fatalf("%s: Layout %#x, ParseLayout %#x, want %#x", what, got, ParseLayout(tm.data), want)
		}
	}
	full := LayoutEth | LayoutIPv4 | LayoutL4
	for _, frameLen := range []int{64, 570, 1518} {
		spec := lazySpec(frameLen)
		base := spec.Template(5)
		check("FillTemplate", base, full)
		for flow := 0; flow < 1000; flow += 7 {
			var tm Template
			spec.FillTemplateFrom(&tm, make([]byte, frameLen), base, flow)
			check(fmt.Sprintf("FillTemplateFrom flow %d", flow), &tm, full)
		}
		check("Derive", base.Derive(func(data []byte) {
			SetEthSrc(data, MAC{2, 0xff, 0, 0, 0, 1})
			SetEthDst(data, MAC{2, 0, 0, 0, 0, 7})
		}), full)
	}
	img := lazySpec(64).Template(0).Image()
	check("NewTemplate", NewTemplate(img), full)
	tagged := append(append(append([]byte(nil), img[:12]...), 0x81, 0x00, 0x20, 0x0a), img[12:]...)
	check("VLAN", NewTemplate(tagged), full|LayoutVLAN)
	badSum := append([]byte(nil), img...)
	badSum[EthHdrLen+11] ^= 0x40
	check("bad checksum", NewTemplate(badSum), LayoutEth)
	icmp := append([]byte(nil), img...)
	(&IPv4Hdr{TotalLen: 50, TTL: 64, Proto: 1}).Put(icmp[EthHdrLen:])
	check("ICMP", NewTemplate(icmp), LayoutEth|LayoutIPv4)
	for _, cut := range []struct {
		n    int
		want Layout
	}{
		{0, 0}, {EthHdrLen - 1, 0}, {EthHdrLen, LayoutEth},
		{EthHdrLen + IPv4HdrLen - 1, LayoutEth},
		{EthHdrLen + IPv4HdrLen, LayoutEth | LayoutIPv4},
		{EthHdrLen + IPv4HdrLen + UDPHdrLen - 1, LayoutEth | LayoutIPv4},
		{EthHdrLen + IPv4HdrLen + UDPHdrLen, full},
	} {
		check(fmt.Sprintf("cut to %d", cut.n), NewTemplate(img[:cut.n]), cut.want)
	}
	// A tag that does not fit leaves the frame untagged, of EtherType 802.1Q.
	check("cut tag", NewTemplate(tagged[:EthHdrLen+VLANTagLen-1]), LayoutEth)
}

// TestTemplateStaysSmall: a Template is an image slice and a one-byte
// verdict, 32 bytes on a 64-bit machine, as it was when it carried an ID.
func TestTemplateStaysSmall(t *testing.T) {
	if got, want := unsafe.Sizeof(Template{}), 4*unsafe.Sizeof(uintptr(0)); got != want {
		t.Fatalf("Template is %d bytes, want %d", got, want)
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

// TestProbeTrafficAttachesNoBacking pins lazy probes: over a warm pool, a
// probe's whole life — Get, SetTemplate, MarkProbe (software and hardware
// stamps, the NIC filling in the latter's TxStamp), the vhost CopyFrom,
// Clone, l2fwd's swap to a derived template, read-only View, Free —
// attaches no storage and allocates nothing, and the stamp is still there
// for Bytes() to write over the derived image.
func TestProbeTrafficAttachesNoBacking(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for itself: allocation bounds hold only without -race")
	}
	p := NewPool(2048)
	spec := lazySpec(64)
	tmpl := spec.Template(0)
	swapped := MAC{2, 0xAA, 0, 0, 0, 1}
	derived := tmpl.Derive(func(data []byte) { SetEthSrc(data, swapped) }) // l2fwd memoizes it
	const inFlight = 64
	var held [inFlight]*Buf
	cycle := func() {
		for i := range held {
			b := p.Get(64)
			b.SetTemplate(tmpl)
			MarkProbe(b, uint64(i+1), units.Time(i)) // i = 0: a hardware stamp
			held[i] = b
		}
		for _, src := range held {
			if src.TxStamp == 0 {
				src.TxStamp = 5 // the NIC stamps it on the wire
			}
			dst := p.Get(src.Len())
			dst.CopyFrom(src)
			c := p.Clone(dst)
			c.SetTemplate(derived)
			if !c.Probe || c.Materialized() || len(c.View()) != 64 {
				t.Fatal("probe misread")
			}
			c.Free()
			dst.Free()
			src.Free()
		}
	}
	cycle() // warm the pool to its high-water mark
	if avg := testing.AllocsPerRun(10000/inFlight, cycle); avg != 0 {
		t.Fatalf("probe traffic allocates %.2f times per %d frames", avg, inFlight)
	}
	if p.backed != 0 || p.slabData != nil {
		t.Fatalf("probe traffic carved backing for %d buffers", p.backed)
	}

	for _, tx := range []units.Time{0, 1000} {
		b := p.Get(64)
		b.SetTemplate(tmpl)
		MarkProbe(b, 7, tx)
		b.TxStamp = 1000 // a hardware stamp arrives on the wire; a software one is already there
		c := p.Clone(b)
		c.SetTemplate(derived)
		data := c.Bytes()
		if seq, got, ok := ProbeInfo(data); !ok || seq != 7 || got != tx {
			t.Fatalf("stamped with TX %v: probe payload = (%d, %v, %v)", tx, seq, got, ok)
		}
		if !bytes.Equal(data[:probeOffset], derived.Image()[:probeOffset]) || !bytes.Equal(data[probeOffset+probeLen:], derived.Image()[probeOffset+probeLen:]) {
			t.Fatal("a materialized probe differs from its template image outside the stamp")
		}
		if !bytes.Equal(b.View(), tmpl.Image()) || b.Materialized() {
			t.Fatal("materializing a clone touched the source probe")
		}
		b.Free()
		c.Free()
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

// TestPoolRelease: Release forgets the lease's buffers, parked and live
// alike, restarts Live and Allocated, and puts the pool where AcquirePool
// leases it back, but only for its own buffer size; a second Release
// before that panics.
func TestPoolRelease(t *testing.T) {
	p := NewPool(2048)
	bufs := make([]*Buf, 8)
	for i := range bufs {
		bufs[i] = p.Get(64)
	}
	for _, b := range bufs[:5] {
		b.Free()
	}
	if p.Idle() != 5 || p.Live() != 3 {
		t.Fatalf("idle = %d, live = %d, want 5 and 3", p.Idle(), p.Live())
	}
	p.Release()
	if p.Idle() != 0 || p.Live() != 0 || p.Allocated() != 0 {
		t.Fatalf("after Release: idle = %d, live = %d, allocated = %d, want 0", p.Idle(), p.Live(), p.Allocated())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a second Release did not panic")
			}
		}()
		p.Release()
	}()
	if q := AcquirePool(1024); q == p {
		t.Fatal("AcquirePool leased a pool of another buffer size")
	}
	if q := AcquirePool(2048); q != p {
		t.Fatal("AcquirePool did not lease back the released pool")
	}
	// The pool still works after a release.
	b := p.Get(128)
	if b.Len() != 128 || p.Allocated() != 1 {
		t.Fatalf("post-release Get: len = %d, allocated = %d", b.Len(), p.Allocated())
	}
	b.Free()
	if p.Live() != 0 {
		t.Fatalf("live = %d, want 0", p.Live())
	}
}

// releaseLease ends p's lease and leases it back, as the next cell does.
func releaseLease(t *testing.T, p *Pool) *Pool {
	t.Helper()
	p.Release()
	q := AcquirePool(p.bufSize)
	if q != p {
		t.Fatal("AcquirePool did not lease back the released pool")
	}
	return q
}

// TestAcquirePoolLeasesOnce: goroutines leasing and releasing pools at
// once never hold the same pool together, and each lease starts empty.
// Run it under -race: a pool two leases shared would also be a race.
func TestAcquirePoolLeasesOnce(t *testing.T) {
	var (
		mu     sync.Mutex
		leased = map[*Pool]bool{}
		wg     sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := AcquirePool(512)
				mu.Lock()
				twice := leased[p]
				leased[p] = true
				mu.Unlock()
				if twice || p.Live() != 0 || p.Allocated() != 0 {
					t.Errorf("lease %d: pool leased twice (%v) or not empty (%d live, %d allocated)", i, twice, p.Live(), p.Allocated())
					return
				}
				for k := 0; k <= i%40; k++ {
					p.Get(64).Bytes()[0] = byte(k)
				}
				mu.Lock()
				delete(leased, p)
				mu.Unlock()
				p.Release()
			}
		}()
	}
	wg.Wait()
}

// TestReleasedPoolMatchesFresh: a lease on a released pool behaves like
// one on a fresh pool. Driven through the same operations, both hand out
// buffers with the same length and metadata, a buffer that was never
// written reads as zeros, and Live, Allocated and Idle agree at every
// step, although the released pool's headers still hold the last lease's
// runs, probes, templates and bytes. The released pool carves the last
// lease's headers again, in the same order, and allocates no new slab.
func TestReleasedPoolMatchesFresh(t *testing.T) {
	const n = 600 // more than two header slabs
	tmpl := lazySpec(64).Template(2)
	used := NewPool(2048)
	carved := make([]*Buf, n)
	for i := range carved {
		carved[i] = used.Get(64)
	}
	for i, b := range carved {
		switch i % 4 {
		case 0:
			b.SetTemplate(tmpl)
			b.SetRun(3)
			b.Seq, b.Ingress, b.Gap, b.AvailAt = 7, 8, 9, 10
		case 1:
			MarkProbe(b, uint64(i), 5)
		case 2:
			b.Bytes()[0] = 0xAB
		}
		if i%3 == 0 {
			b.Free()
		}
	}
	headers := used.Cap()
	used = releaseLease(t, used)
	if used.Cap() != headers {
		t.Fatalf("Release changed the pool's headers: %d, want %d", used.Cap(), headers)
	}

	fresh := NewPool(2048)
	var uHeld, fHeld []*Buf
	for i := 0; i < n; i++ {
		k := used.Allocated()
		u, f := used.Get(64), fresh.Get(64)
		if used.Allocated() > k && u != carved[k] {
			t.Fatalf("get %d: the released pool did not carve its first lease's header %d", i, k)
		}
		if u.Len() != f.Len() || u.Seq != f.Seq || u.Probe != f.Probe || u.Run() != f.Run() ||
			u.TxStamp != f.TxStamp || u.Ingress != f.Ingress || u.Gap != f.Gap || u.AvailAt != f.AvailAt ||
			u.Template() != f.Template() || u.stamp != f.stamp || u.inPool != f.inPool {
			t.Fatalf("get %d: metadata %+v after Release, %+v fresh", i, *u, *f)
		}
		if used.Allocated() > k && k%4 == 3 && !bytes.Equal(u.Bytes(), f.Bytes()) {
			t.Fatalf("get %d: header %d, never written, reads %x after Release", i, k, u.Bytes()[:8])
		}
		uHeld, fHeld = append(uHeld, u), append(fHeld, f)
		if i%5 == 0 {
			uHeld[i/5].Free()
			fHeld[i/5].Free()
		}
		if used.Live() != fresh.Live() || used.Allocated() != fresh.Allocated() || used.Idle() != fresh.Idle() {
			t.Fatalf("get %d: live/allocated/idle %d/%d/%d after Release, %d/%d/%d fresh", i,
				used.Live(), used.Allocated(), used.Idle(), fresh.Live(), fresh.Allocated(), fresh.Idle())
		}
	}
	if used.Cap() != headers {
		t.Fatalf("the second lease grew the pool to %d headers from %d", used.Cap(), headers)
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
	if raceEnabled {
		t.Skip("the race detector allocates for itself: allocation bounds hold only without -race")
	}
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
			if _, _, ok := ProbeInfo(c.View()); ok || len(c.View()) != 64 {
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
	if raceEnabled {
		t.Skip("the race detector allocates for itself: allocation bounds hold only without -race")
	}
	const n = 1000
	var held [n]*Buf
	// The runs allocate megabytes, so a collection would start inside the
	// count, and the runtime's own work after one (new mark workers and
	// threads, the unique package's map cleanup) allocates a varying number
	// of objects, sometimes enough to lift the average by one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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

	// Release keeps the data slab it has not finished carving, and each
	// header its backing: the next lease carves the same headers, the one
	// never written still reads as zeros, and the written one attaches no
	// new backing.
	if p.slabData == nil {
		t.Fatal("expected a partly carved data slab")
	}
	src.Free()
	dst.Free()
	dirty.Free()
	left := len(p.slabData)
	p = releaseLease(t, p)
	if len(p.slabData) != left || p.Idle() != 0 {
		t.Fatal("Release dropped the unfinished data slab or kept the free list")
	}
	if b := p.Get(64); b != src {
		t.Fatal("the next lease does not start at the first header")
	}
	if b := p.Get(64); b != dst || b.data != nil || b.Bytes()[0] != 0 {
		t.Fatal("the unwritten header of the last lease is backed, or not zeros")
	}
	if b := p.Get(64); b != dirty || len(p.slabData) != left-p.bufSize {
		t.Fatal("the written header lost its backing across Release")
	}
}

// TestRunBuffers: a run's length lives in Buf's padding (a Buf stays 96
// bytes on 64-bit hosts), a recycled buffer is a run of one again, Cut
// copies the first frames as a run of their own and numbers and times the
// rest on from them, Skip does the same without the copy, and Follows
// accepts exactly the same template-backed, non-probe frame from the same
// pool with the next sequence number.
func TestRunBuffers(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Buf{}) != 96 {
		t.Fatalf("Buf is %d bytes, want 96", unsafe.Sizeof(Buf{}))
	}
	p := NewPool(2048)
	tmpl := lazySpec(64).Template(0)
	r := p.Get(64)
	r.SetTemplate(tmpl)
	r.Seq, r.Ingress, r.Gap = 8, 5, 3
	r.SetRun(6)
	head := r.Cut(2)
	if head.Run() != 2 || head.Template() != tmpl || head.Seq != 8 || head.Ingress != 5 || head.Gap != 3 || p.Live() != 2 {
		t.Fatalf("cut: run %d, seq %d, ingress %v, gap %v, %d live", head.Run(), head.Seq, head.Ingress, head.Gap, p.Live())
	}
	if r.Run() != 4 || r.Seq != 10 || r.Ingress != 11 || r.Gap != 3 {
		t.Fatalf("after the cut: run %d, seq %d, ingress %v, gap %v", r.Run(), r.Seq, r.Ingress, r.Gap)
	}
	if c := p.Clone(r); c.Run() != 4 || c.Seq != 10 || c.Ingress != 11 || c.Gap != 3 {
		t.Fatalf("clone: run %d, seq %d, ingress %v, gap %v", c.Run(), c.Seq, c.Ingress, c.Gap)
	}
	tail := p.Clone(r)
	tail.Skip(3)
	if tail.Run() != 1 || tail.Seq != 13 || tail.Ingress != 20 {
		t.Fatalf("skip: run %d, seq %d, ingress %v", tail.Run(), tail.Seq, tail.Ingress)
	}
	for _, m := range []int{0, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Skip(%d) of a run of 4 did not panic", m)
				}
			}()
			r.Skip(m)
		}()
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
