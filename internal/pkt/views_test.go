package pkt

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/units"
)

// viewModel is the naive model of one live buffer: its frame contents as
// plain bytes, -1 marking a byte no operation has defined (what growing a
// frame with SetLen exposes, or a recycled buffer's leftover contents),
// and the probe stamp MarkProbe laid over them, which a later SetTemplate
// lays over the new image again.
type viewModel struct {
	b     *Buf
	data  []int16
	run   int
	stamp []byte // nil for a frame that is not a probe
}

// overlay lays m's probe stamp, if any, over its contents, clipped to the
// frame length.
func (m *viewModel) overlay() {
	for k, c := range m.stamp {
		if at := probeOffset + k; at < len(m.data) {
			m.data[at] = int16(c)
		}
	}
}

// checkBufViews runs the buffer operation sequence data encodes against
// the naive model and fails on the first Bytes() or AppendTo byte that
// differs from a defined model byte, the first View() byte that does
// outside the stamp of a probe that is still template-backed, the first
// AppendTo that changes the buffer, the first Run() that differs, or the
// first Pool.Live() that is not the model's live count. A Release drops
// every model buffer; the lease after it reads like a fresh pool's, except
// that the headers it carves again hold leftover bytes. Probes are single
// frames (Follows refuses them, so no run is ever a probe): MarkProbe
// skips runs and SetRun skips probes.
func checkBufViews(t *testing.T, data []byte) {
	const bufSize, maxLive = 128, 12
	pool := NewPool(bufSize)
	var tmpls []*Template
	for k, n := range []int{0, 40, 64, 100} {
		img := make([]byte, n)
		for i := range img {
			img[i] = byte(i*7 + k*61 + 1)
		}
		tmpls = append(tmpls, NewTemplate(img))
	}
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return int(c)
	}
	var live []*viewModel
	add := func(b *Buf, contents []int16) {
		live = append(live, &viewModel{b: b, data: contents, run: 1})
	}
	// kept is how many headers earlier leases carved: a lease carves them
	// again, in order, before any new one.
	kept := 0
	get := func(n int) *Buf {
		fresh := pool.Allocated()
		b := pool.Get(n)
		m := make([]int16, n)
		if pool.Allocated() == fresh || fresh < kept { // recycled: its leftovers are undefined
			for i := range m {
				m[i] = -1
			}
		}
		add(b, m)
		return b
	}
	for op := 0; len(data) > 0; op++ {
		kind := next() % 11
		if len(live) == 0 || (kind == 0 && len(live) < maxLive) {
			get(next() % (bufSize + 1))
			continue
		}
		i := next() % len(live)
		m := live[i]
		switch kind {
		case 0, 1: // SetTemplate
			tm := tmpls[next()%len(tmpls)]
			m.b.SetTemplate(tm)
			m.data = m.data[:0]
			for _, c := range tm.data {
				m.data = append(m.data, int16(c))
			}
			m.overlay()
		case 2: // SetLen
			n := next() % (bufSize + 1)
			m.b.SetLen(n)
			for len(m.data) < n {
				m.data = append(m.data, -1)
			}
			m.data = m.data[:n]
		case 3: // write through Bytes()
			if n := len(m.data); n > 0 {
				at, v := next()%n, byte(next())
				m.b.Bytes()[at] = v
				m.data[at] = int16(v)
			}
		case 4: // CopyFrom another live buffer (or itself)
			src := live[next()%len(live)]
			m.b.CopyFrom(src.b)
			m.data = append(m.data[:0], src.data...)
			m.run, m.stamp = src.run, src.stamp
		case 5, 6: // Clone, or Cut: a new buffer holding all or the first of the source's frames
			if len(live) == maxLive || (kind == 6 && m.run == 1) {
				continue
			}
			var b *Buf
			run := m.run
			if kind == 5 {
				b = pool.Clone(m.b)
			} else {
				run = 1 + next()%(m.run-1)
				b = m.b.Cut(run)
				m.run -= run
			}
			add(b, append([]int16(nil), m.data...))
			live[len(live)-1].run, live[len(live)-1].stamp = run, m.stamp
		case 7: // SetRun
			if m.stamp != nil {
				continue
			}
			n := 1 + next()%4
			m.b.SetRun(n)
			m.run = n
		case 8: // MarkProbe, with a software stamp or a hardware one
			if m.run > 1 {
				continue
			}
			seq, tx := uint64(next()), units.Time(0)
			if next()%2 == 1 {
				tx = units.Time(1 + next())
			}
			MarkProbe(m.b, seq, tx)
			if tx == 0 {
				m.b.TxStamp = units.Time(1 + next()) // the NIC stamps it on the wire
			}
			m.stamp = make([]byte, probeLen)
			binary.BigEndian.PutUint32(m.stamp, probeMagic)
			binary.BigEndian.PutUint64(m.stamp[4:], seq)
			binary.BigEndian.PutUint64(m.stamp[12:], uint64(tx))
			m.overlay()
		case 9: // Free
			m.b.Free()
			live = append(live[:i], live[i+1:]...)
		case 10: // Release, and lease the pool back: every buffer is dropped
			kept = max(kept, pool.Allocated())
			pool.Release()
			if pool = AcquirePool(bufSize); pool.Live() != 0 || pool.Allocated() != 0 || pool.Idle() != 0 {
				t.Fatalf("op %d: leased a released pool with %d live, %d allocated, %d idle buffers",
					op, pool.Live(), pool.Allocated(), pool.Idle())
			}
			live = live[:0]
		}
		if got := pool.Live(); got != len(live) {
			t.Fatalf("op %d: Pool.Live() = %d, model holds %d buffers", op, got, len(live))
		}
		for j, m := range live {
			if got := m.b.Run(); got != m.run {
				t.Fatalf("op %d: buffer %d Run() = %d, want %d", op, j, got, m.run)
			}
			checkRendering(t, op, j, m.b, m.data)
			view := m.data
			if m.stamp != nil && !m.b.Materialized() {
				view = append([]int16(nil), view...)
				for k := probeOffset; k < min(probeOffset+probeLen, len(view)); k++ {
					view[k] = -1 // a lazy stamp is not part of the image View shows
				}
			}
			checkView(t, op, j, "View", m.b.View(), view)
		}
	}
	for j, m := range live {
		checkView(t, -1, j, "Bytes", m.b.Bytes(), m.data)
		m.b.Free()
	}
	if pool.Live() != 0 {
		t.Fatalf("Pool.Live() = %d after freeing every buffer", pool.Live())
	}
}

// checkRendering holds b's AppendTo rendering — what a capture records —
// to the model's defined bytes, and fails if rendering changed b.
func checkRendering(t *testing.T, op, j int, b *Buf, want []int16) {
	t.Helper()
	tmpl, backed := b.tmpl, b.data != nil
	got := b.AppendTo([]byte{0xEE})
	if b.tmpl != tmpl || (b.data != nil) != backed {
		t.Fatalf("op %d: buffer %d AppendTo changed the buffer", op, j)
	}
	if got[0] != 0xEE {
		t.Fatalf("op %d: buffer %d AppendTo overwrote what it appends to", op, j)
	}
	checkView(t, op, j, "AppendTo", got[1:], want)
}

// checkView compares a buffer's contents with its model's defined bytes.
func checkView(t *testing.T, op, j int, what string, got []byte, want []int16) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("op %d: buffer %d %s() is %d bytes, want %d", op, j, what, len(got), len(want))
	}
	for k, w := range want {
		if w >= 0 && got[k] != byte(w) {
			t.Fatalf("op %d: buffer %d %s()[%d] = %#x, want %#x", op, j, what, k, got[k], w)
		}
	}
}

// FuzzBufViews holds Bytes() and AppendTo (what a capture records) to a
// plain byte-slice model with each probe's stamp laid over it, View() to
// the same model outside a lazy probe's stamp, and Pool.Live() to the
// model's count, over any sequence of Get, SetTemplate, SetLen, writes
// through Bytes(), CopyFrom, Clone, Cut, SetRun, MarkProbe (software and
// hardware stamps), Free and Release followed by AcquirePool.
func FuzzBufViews(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 64+rng.Intn(448))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(checkBufViews)
}
