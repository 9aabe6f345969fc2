package ovs

import (
	"encoding/binary"
	"fmt"

	"repro/internal/switches/switchdef"
)

// OvS's Programmer lowers typed rules into its OpenFlow table: each typed
// match field packs into its fieldSpan and actions map one-to-one.
// Install and Revoke run the full rebuildGroups + invalidateCaches
// sequence, so no EMC or megaflow decision taken before an edit outlives
// it.

// lowerMatch converts a typed rule's identity — priority and match — into
// the internal representation, with no actions.
func lowerMatch(r switchdef.Rule) *Rule {
	out := &Rule{Priority: r.EffectivePriority()}
	m := r.Match
	var packed packedKey
	set := func(name string, raw []byte) {
		span := fieldSpans[name]
		copy(packed[span.off:span.off+span.len], raw)
		for i := span.off; i < span.off+span.len; i++ {
			out.Mask[i] = 0xff
		}
	}
	u16 := func(v uint16) []byte {
		b := make([]byte, 2)
		binary.BigEndian.PutUint16(b, v)
		return b
	}
	if m.Fields&switchdef.FInPort != 0 {
		set("in_port", u16(uint16(m.InPort)))
	}
	if m.Fields&switchdef.FEthDst != 0 {
		set("dl_dst", m.EthDst[:])
	}
	if m.Fields&switchdef.FEthSrc != 0 {
		set("dl_src", m.EthSrc[:])
	}
	if m.Fields&switchdef.FEthType != 0 {
		set("dl_type", u16(m.EthType))
	}
	if m.Fields&switchdef.FVLAN != 0 {
		set("dl_vlan", u16(m.VLAN+1)) // stored as VID+1, like packKey
	}
	if m.Fields&switchdef.FIPSrc != 0 {
		set("nw_src", m.IPSrc[:])
	}
	if m.Fields&switchdef.FIPDst != 0 {
		set("nw_dst", m.IPDst[:])
	}
	if m.Fields&switchdef.FIPProto != 0 {
		set("nw_proto", []byte{m.IPProto})
	}
	if m.Fields&switchdef.FL4Src != 0 {
		set("tp_src", u16(m.L4Src))
	}
	if m.Fields&switchdef.FL4Dst != 0 {
		set("tp_dst", u16(m.L4Dst))
	}
	out.Match = mask(out.Mask).apply(packed)
	return out
}

// lowerRule converts a typed rule into the internal representation.
func lowerRule(r switchdef.Rule) (*Rule, error) {
	out := lowerMatch(r)
	for _, a := range r.Actions {
		switch a.Kind {
		case switchdef.RuleOutput:
			out.Actions = append(out.Actions, Action{Kind: ActOutput, Port: a.Port})
		case switchdef.RuleDrop:
			out.Actions = append(out.Actions, Action{Kind: ActDrop})
		case switchdef.RuleSetEthDst:
			out.Actions = append(out.Actions, Action{Kind: ActModDlDst, MAC: a.MAC})
		case switchdef.RuleSetEthSrc:
			out.Actions = append(out.Actions, Action{Kind: ActModDlSrc, MAC: a.MAC})
		default:
			return nil, fmt.Errorf("ovs: unsupported rule action kind %d", a.Kind)
		}
	}
	if len(out.Actions) == 0 {
		return nil, fmt.Errorf("ovs: rule has no actions")
	}
	return out, nil
}

// Install implements switchdef.Programmer: lower the typed rule into the
// OpenFlow table (replacing an existing rule with the same priority and
// match in place) and flush every derived cache.
func (sw *Switch) Install(r switchdef.Rule) error {
	lowered, err := lowerRule(r)
	if err != nil {
		return err
	}
	for _, a := range lowered.Actions {
		if a.Kind == ActOutput && (a.Port < 0 || a.Port >= len(sw.ports)) {
			return fmt.Errorf("ovs: rule outputs to missing port %d", a.Port)
		}
	}
	if old := sw.findRule(lowered); old != nil {
		// Replace in place: the original installation order (seq) is the
		// rule's identity in tie-breaking, so it must be preserved.
		lowered.seq = old.seq
		for i, existing := range sw.rules {
			if existing == old {
				sw.rules[i] = lowered
				break
			}
		}
	} else {
		lowered.seq = len(sw.rules)
		sw.rules = append(sw.rules, lowered)
	}
	sw.rebuildGroups()
	sw.invalidateCaches()
	return nil
}

// Revoke implements switchdef.Programmer: remove the rule with r's
// (priority, match) identity and flush every derived cache. r's actions
// are not read.
func (sw *Switch) Revoke(r switchdef.Rule) error {
	old := sw.findRule(lowerMatch(r))
	if old == nil {
		return fmt.Errorf("ovs: revoke of absent rule %q", r.Key())
	}
	for i, existing := range sw.rules {
		if existing == old {
			sw.rules = append(sw.rules[:i], sw.rules[i+1:]...)
			break
		}
	}
	sw.rebuildGroups()
	sw.invalidateCaches()
	return nil
}

// findRule locates an installed rule with the same identity (priority,
// mask, masked match) as lowered.
func (sw *Switch) findRule(lowered *Rule) *Rule {
	for _, r := range sw.rules {
		if r.Priority == lowered.Priority && r.Mask == lowered.Mask && r.Match == lowered.Match {
			return r
		}
	}
	return nil
}
