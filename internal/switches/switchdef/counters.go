package switchdef

import (
	"repro/internal/cost"
	"repro/internal/pkt"
	"repro/internal/units"
)

// Counters is a switch's data-plane ledger: every frame a switch received
// ends up forwarded (a device accepted it) or dropped (no rule, a drop
// rule, a refused transmit). A switch embeds it, books through Transmit
// and Discard, and so implements Switch.Counts.
type Counters struct {
	Forwarded, Dropped int64
	// EMCEvictions counts exact-match-cache entries replaced while live
	// (OvS; zero for switches without such a cache).
	EMCEvictions int64
}

// Counts returns the ledger itself.
func (c *Counters) Counts() *Counters { return c }

// Transmit sends bufs, standing for frames frames, through dev in one
// TxBurst, and books the frames dev accepted as forwarded and the rest as
// dropped.
func (c *Counters) Transmit(now units.Time, m *cost.Meter, dev DevPort, bufs []*pkt.Buf, frames int) {
	sent := dev.TxBurst(now, m, bufs)
	c.Forwarded += int64(sent)
	c.Dropped += int64(frames - sent)
}

// Discard books the frames of b as dropped and frees it.
func (c *Counters) Discard(b *pkt.Buf) {
	c.Dropped += int64(b.Run())
	b.Free()
}

// Stage is one output port's batch: the buffers a switch holds for it,
// the frames they stand for, and when the first was staged. When to flush
// is each switch's own policy.
type Stage struct {
	Bufs   []*pkt.Buf
	Frames int
	Since  units.Time
}

// Add stages bufs at now.
func (s *Stage) Add(now units.Time, bufs ...*pkt.Buf) {
	if len(s.Bufs) == 0 {
		s.Since = now
	}
	s.Bufs = append(s.Bufs, bufs...)
	s.Frames += pkt.Frames(bufs)
}

// Flush transmits the staged batch through dev, booking it in c, and
// empties the stage, keeping its storage: devices do not retain the
// slice.
func (s *Stage) Flush(now units.Time, m *cost.Meter, dev DevPort, c *Counters) {
	c.Transmit(now, m, dev, s.Bufs, s.Frames)
	s.Bufs, s.Frames = s.Bufs[:0], 0
}
