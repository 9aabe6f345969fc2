package pkt

import (
	"math/rand"
	"testing"
)

// viewModel is the naive model of one live buffer: its frame contents as
// plain bytes, -1 marking a byte no operation has defined (what growing a
// frame with SetLen exposes, or a recycled buffer's leftover contents).
type viewModel struct {
	b    *Buf
	data []int16
	run  int
}

// checkBufViews runs the buffer operation sequence data encodes against
// the naive model and fails on the first View() or Bytes() byte that
// differs from a defined model byte, the first Run() that differs, or the
// first Pool.Live() that is not the model's live count.
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
	get := func(n int) *Buf {
		fresh := pool.Allocated()
		b := pool.Get(n)
		m := make([]int16, n)
		if pool.Allocated() == fresh { // recycled: its leftovers are undefined
			for i := range m {
				m[i] = -1
			}
		}
		add(b, m)
		return b
	}
	for op := 0; len(data) > 0; op++ {
		kind := next() % 9
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
			m.run = src.run
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
			live[len(live)-1].run = run
		case 7: // SetRun
			n := 1 + next()%4
			m.b.SetRun(n)
			m.run = n
		case 8: // Free
			m.b.Free()
			live = append(live[:i], live[i+1:]...)
		}
		if got := pool.Live(); got != len(live) {
			t.Fatalf("op %d: Pool.Live() = %d, model holds %d buffers", op, got, len(live))
		}
		for j, m := range live {
			if got := m.b.Run(); got != m.run {
				t.Fatalf("op %d: buffer %d Run() = %d, want %d", op, j, got, m.run)
			}
			checkView(t, op, j, "View", m.b.View(), m.data)
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

// FuzzBufViews holds View() and Bytes() to a plain byte-slice model, and
// Pool.Live() to the model's count, over any sequence of Get, SetTemplate,
// SetLen, writes through Bytes(), CopyFrom, Clone, Cut, SetRun and Free.
func FuzzBufViews(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 64+rng.Intn(448))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(checkBufViews)
}
