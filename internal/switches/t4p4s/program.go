package t4p4s

import (
	"fmt"

	"repro/internal/switches/switchdef"
)

// t4p4s's Programmer lowers typed rules into the l2fwd program's dmac
// table: the vocabulary a compiled P4 pipeline exposes at runtime is its
// table-entry API, so only destination-MAC-exact matches are expressible,
// and rules carry no priority (an exact table has no overlap to order).
// Every Install/Revoke bumps the table's version counter, which the memo
// validity check reads — recorded pipeline traversals are retired the
// moment the table changes.

// lowerRule maps a typed rule onto a dmac-table entry.
func lowerRule(r switchdef.Rule) (key [6]byte, e Entry, err error) {
	if r.Priority != 0 && r.Priority != switchdef.DefaultRulePriority {
		return key, e, fmt.Errorf("t4p4s: exact tables have no rule priorities")
	}
	if r.Match.Fields != switchdef.FEthDst {
		return key, e, fmt.Errorf("t4p4s: l2fwd matches on dl_dst only (fields %04x unsupported)", uint16(r.Match.Fields))
	}
	key = r.Match.EthDst
	switch {
	case len(r.Actions) == 1 && r.Actions[0].Kind == switchdef.RuleOutput:
		e = Entry{Action: ActForward, Port: r.Actions[0].Port}
	case len(r.Actions) == 1 && r.Actions[0].Kind == switchdef.RuleDrop:
		e = Entry{Action: ActDrop}
	case len(r.Actions) == 2 && r.Actions[0].Kind == switchdef.RuleSetEthDst &&
		r.Actions[1].Kind == switchdef.RuleOutput:
		e = Entry{Action: ActSetDstMAC, MAC: r.Actions[0].MAC, Port: r.Actions[1].Port}
	default:
		return key, e, fmt.Errorf("t4p4s: unsupported action list")
	}
	return key, e, nil
}

// Install implements switchdef.Programmer.
func (sw *Switch) Install(r switchdef.Rule) error {
	key, e, err := lowerRule(r)
	if err != nil {
		return err
	}
	if e.Action == ActForward || e.Action == ActSetDstMAC {
		if e.Port < 0 || e.Port >= len(sw.ports) {
			return fmt.Errorf("t4p4s: no port %d", e.Port)
		}
	}
	sw.dmac.Add(key[:], e)
	sw.prog.Put(r)
	return nil
}

// Revoke implements switchdef.Programmer.
func (sw *Switch) Revoke(r switchdef.Rule) error {
	key, _, err := lowerRule(r)
	if err != nil {
		return err
	}
	if !sw.dmac.Remove(key[:]) {
		return fmt.Errorf("t4p4s: revoke of absent dmac entry %v", r.Match.EthDst)
	}
	sw.prog.Delete(r)
	return nil
}

// Snapshot implements switchdef.Programmer.
func (sw *Switch) Snapshot() []switchdef.Rule { return sw.prog.Snapshot() }
