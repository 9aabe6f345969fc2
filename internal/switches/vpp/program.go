package vpp

import (
	"fmt"

	"repro/internal/pkt"
	"repro/internal/switches/switchdef"
)

// VPP's Programmer lowers typed rules onto its two runtime-configurable
// surfaces: in_port → output rules become l2patch entries (what the
// paper's "test l2patch rx portN tx portM" sets), and destination-MAC
// drop rules become a feature-arc drop list consulted on the patch path
// only while non-empty. VPP has no classification memo, so no generation counter is
// needed — the patch table and ACL are read per dispatch.

// Install implements switchdef.Programmer.
func (sw *Switch) Install(r switchdef.Rule) error {
	if r.Priority != 0 && r.Priority != switchdef.DefaultRulePriority {
		return fmt.Errorf("vpp: l2patch rules carry no priority")
	}
	switch {
	case r.Match.Fields == switchdef.FInPort &&
		len(r.Actions) == 1 && r.Actions[0].Kind == switchdef.RuleOutput:
		rx, tx := r.Match.InPort, r.Actions[0].Port
		if err := sw.checkPort(rx); err != nil {
			return err
		}
		if err := sw.checkPort(tx); err != nil {
			return err
		}
		sw.patchTo[rx] = tx
	case r.Match.Fields == switchdef.FEthDst &&
		len(r.Actions) == 1 && r.Actions[0].Kind == switchdef.RuleDrop:
		if sw.acl == nil {
			sw.acl = make(map[pkt.MAC]bool)
		}
		sw.acl[r.Match.EthDst] = true
	default:
		return fmt.Errorf("vpp: unsupported rule (want in_port→output or dl_dst→drop)")
	}
	sw.prog.Put(r)
	return nil
}

// Revoke implements switchdef.Programmer.
func (sw *Switch) Revoke(r switchdef.Rule) error {
	if _, ok := sw.prog.Get(r); !ok {
		return fmt.Errorf("vpp: revoke of absent rule")
	}
	switch {
	case r.Match.Fields == switchdef.FInPort:
		sw.patchTo[r.Match.InPort] = -1
	case r.Match.Fields == switchdef.FEthDst:
		delete(sw.acl, r.Match.EthDst)
	}
	sw.prog.Delete(r)
	return nil
}

// Snapshot implements switchdef.Programmer.
func (sw *Switch) Snapshot() []switchdef.Rule { return sw.prog.Snapshot() }
