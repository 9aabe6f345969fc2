package t4p4s

import (
	"fmt"

	"repro/internal/switches/switchdef"
)

// t4p4s's Programmer lowers typed rules into the l2fwd program's dmac
// table: the vocabulary a compiled P4 pipeline exposes at runtime is its
// table-entry API, so only destination-MAC-exact matches are expressible,
// and rules carry no priority (an exact table has no overlap to order).
// The data plane looks the table up afresh for every frame, so an
// Install/Revoke takes effect from the next frame with nothing to retire.

// checkMatch rejects every rule identity the dmac table cannot hold.
func checkMatch(r switchdef.Rule) error {
	if r.Priority != 0 && r.Priority != switchdef.DefaultRulePriority {
		return fmt.Errorf("t4p4s: exact tables have no rule priorities")
	}
	if r.Match.Fields != switchdef.FEthDst {
		return fmt.Errorf("t4p4s: l2fwd matches on dl_dst only (fields %04x unsupported)", uint16(r.Match.Fields))
	}
	return nil
}

// lowerRule maps a typed rule onto a dmac-table entry, keyed on
// r.Match.EthDst.
func lowerRule(r switchdef.Rule) (Entry, error) {
	if err := checkMatch(r); err != nil {
		return Entry{}, err
	}
	switch {
	case len(r.Actions) == 1 && r.Actions[0].Kind == switchdef.RuleOutput:
		return Entry{Action: ActForward, Port: r.Actions[0].Port}, nil
	case len(r.Actions) == 1 && r.Actions[0].Kind == switchdef.RuleDrop:
		return Entry{Action: ActDrop}, nil
	case len(r.Actions) == 2 && r.Actions[0].Kind == switchdef.RuleSetEthDst &&
		r.Actions[1].Kind == switchdef.RuleOutput:
		return Entry{Action: ActSetDstMAC, MAC: r.Actions[0].MAC, Port: r.Actions[1].Port}, nil
	}
	return Entry{}, fmt.Errorf("t4p4s: unsupported action list")
}

// Install implements switchdef.Programmer.
func (sw *Switch) Install(r switchdef.Rule) error {
	e, err := lowerRule(r)
	if err != nil {
		return err
	}
	if e.Action == ActForward || e.Action == ActSetDstMAC {
		if e.Port < 0 || e.Port >= len(sw.ports) {
			return fmt.Errorf("t4p4s: no port %d", e.Port)
		}
	}
	sw.dmac.Add(r.Match.EthDst, e)
	return nil
}

// Revoke implements switchdef.Programmer. Only the rule's identity — its
// priority and match — is read, so an actionless rule value revokes.
func (sw *Switch) Revoke(r switchdef.Rule) error {
	if err := checkMatch(r); err != nil {
		return err
	}
	if !sw.dmac.Remove(r.Match.EthDst) {
		return fmt.Errorf("t4p4s: revoke of absent dmac entry %v", r.Match.EthDst)
	}
	return nil
}
