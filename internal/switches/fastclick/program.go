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
// so reprogramming has no cache to invalidate.

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
			sw.dropMAC = make(map[pkt.MAC]bool)
		}
		sw.dropMAC[r.Match.EthDst] = true
	default:
		return fmt.Errorf("fastclick: unsupported rule (want in_port→output or dl_dst→drop)")
	}
	sw.prog.Put(r)
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
	for _, src := range sw.sources {
		if src.port == in {
			src.out = td
			return nil
		}
	}
	sw.sources = append(sw.sources, &fromDevice{port: in, dev: sw.ports[in], out: td})
	return nil
}

// Revoke implements switchdef.Programmer.
func (sw *Switch) Revoke(r switchdef.Rule) error {
	if _, ok := sw.prog.Get(r); !ok {
		return fmt.Errorf("fastclick: revoke of absent rule")
	}
	if r.Match.Fields == switchdef.FInPort {
		return fmt.Errorf("fastclick: wiring rules cannot be revoked (push graph is fixed)")
	}
	delete(sw.dropMAC, r.Match.EthDst)
	sw.prog.Delete(r)
	return nil
}

// Snapshot implements switchdef.Programmer.
func (sw *Switch) Snapshot() []switchdef.Rule { return sw.prog.Snapshot() }

// filterDrops applies the installed dl_dst drop set to an RX batch,
// compacting survivors in place. The charge mirrors a Classifier stage:
// one fixed batch toll plus a per-frame pattern check.
func (sw *Switch) filterDrops(m *cost.Meter, batch []*pkt.Buf) int {
	m.Charge(elemBatchFixed + units.Cycles(len(batch))*classifyPerPkt)
	keep := batch[:0]
	for _, b := range batch {
		if sw.dropMAC[pkt.EthDst(b.View())] {
			b.Free()
			sw.Dropped++
			continue
		}
		keep = append(keep, b)
	}
	return len(keep)
}
