package fastclick

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/pkt"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

// FastClick's Programmer lowers typed rules onto two surfaces. An
// in_port → output rule becomes a FromDPDKDevice -> ToDPDKDevice pair,
// the configuration a user would write; the element graph is push-wired,
// so such rules cannot be revoked once installed. A dl_dst → drop rule
// joins a Classifier-style drop set that every source applies to its RX
// batch while the set is non-empty, which is how runtime churn reaches the
// data plane without rebuilding the graph. No element memoizes anything,
// so reprogramming has no cache to invalidate. The sources and the drop
// set are the whole program: a rule's identity is its field set (in_port
// alone or dl_dst alone) plus that field's value, at the one priority the
// graph knows.

// Install implements switchdef.Programmer.
func (sw *Switch) Install(r switchdef.Rule) error {
	if r.Priority != 0 && r.Priority != switchdef.DefaultRulePriority {
		return fmt.Errorf("fastclick: the element graph carries no rule priorities")
	}
	switch {
	case r.Match.Fields == switchdef.FInPort &&
		len(r.Actions) == 1 && r.Actions[0].Kind == switchdef.RuleOutput:
		if err := sw.wire(r.Match.InPort, r.Actions[0].Port); err != nil {
			return err
		}
	case r.Match.Fields == switchdef.FEthDst &&
		len(r.Actions) == 1 && r.Actions[0].Kind == switchdef.RuleDrop:
		if sw.dropMAC == nil {
			sw.dropMAC = make(map[uint64]bool)
		}
		sw.dropMAC[r.Match.EthDst.Key()] = true
	default:
		return fmt.Errorf("fastclick: unsupported rule (want in_port→output or dl_dst→drop)")
	}
	return nil
}

// wire lowers in_port → output: a new ToDPDKDevice on the output port, fed
// by the input port's FromDPDKDevice. Re-installing a port's rule replaces
// it in place, as Programmer requires: the port keeps its one source,
// re-pointed at the new device, while the old device stays in toDevs to
// flush whatever it already staged.
func (sw *Switch) wire(in, out int) error {
	for _, p := range []int{in, out} {
		if p < 0 || p >= len(sw.ports) {
			return fmt.Errorf("fastclick: no device %d", p)
		}
	}
	td := &toDevice{dev: sw.ports[out]}
	sw.toDevs = append(sw.toDevs, td)
	if src := sw.source(in); src != nil {
		src.out = td
		return nil
	}
	sw.sources = append(sw.sources, &fromDevice{port: in, dev: sw.ports[in], out: td})
	return nil
}

// source returns the FromDPDKDevice of input port in, or nil when no
// in_port rule wired it.
func (sw *Switch) source(in int) *fromDevice {
	for _, src := range sw.sources {
		if src.port == in {
			return src
		}
	}
	return nil
}

// Revoke implements switchdef.Programmer: a wiring rule is present when
// its port has a source, a drop rule when its destination is in the drop
// set.
func (sw *Switch) Revoke(r switchdef.Rule) error {
	m := r.Match
	if r.EffectivePriority() == switchdef.DefaultRulePriority {
		switch {
		case m.Fields == switchdef.FInPort && sw.source(m.InPort) != nil:
			return fmt.Errorf("fastclick: wiring rules cannot be revoked (push graph is fixed)")
		case m.Fields == switchdef.FEthDst && sw.dropMAC[m.EthDst.Key()]:
			delete(sw.dropMAC, m.EthDst.Key())
			return nil
		}
	}
	return fmt.Errorf("fastclick: revoke of absent rule")
}

// filterDrops applies the installed dl_dst drop set to an RX batch of
// frames frames, compacting survivors in place, and returns how many
// buffers and frames survive. The charge mirrors a Classifier stage: one
// fixed batch toll plus a per-frame pattern check.
func (sw *Switch) filterDrops(m *cost.Meter, batch []*pkt.Buf, frames int) (int, int) {
	m.Charge(elemBatchFixed + units.Cycles(frames)*classifyPerPkt)
	keep := batch[:0]
	for _, b := range batch {
		if sw.dropMAC[pkt.EthDst(b.View()).Key()] {
			frames -= b.Run()
			sw.Dropped += int64(b.Run())
			b.Free()
			continue
		}
		keep = append(keep, b)
	}
	return len(keep), frames
}
