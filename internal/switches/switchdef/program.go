// Unified control plane: the typed rule vocabulary every reprogrammable
// switch accepts at runtime.
//
// The paper configures each switch through its native surface — OpenFlow
// rule strings for OvS, match/action table entries for t4p4s, Click
// configuration programs for FastClick, CLI patch commands for VPP. The
// simulated switches have no such text front-ends: Programmer is their one
// rule surface, an OpenFlow-style Install/Revoke contract (the vocabulary
// BOFUSS-style softswitches standardize) over a typed Rule value.
// Controllers, fleets, examples and CrossConnect program every data plane
// the same way while each switch lowers rules straight into its own
// tables, which are the only copy of its program.
package switchdef

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/pkt"
)

// ErrNoRuntimeRules marks switches whose data plane cannot accept rule
// updates at runtime: VALE's learning bridge has no rule table at all,
// Snabb and BESS freeze their app/module graphs when the engine starts
// (reconfiguration restarts the engine, which is not a data-plane rule
// update). Validate and the churn campaign use it to gate cells the same
// way ErrNoMultiCore gates interrupt-mode scaling cells.
var ErrNoRuntimeRules = errors.New("switch cannot reprogram rules at runtime")

// FieldSet is the presence bitmask of a Match: which of the 12-tuple
// fields the rule constrains. An unset field is a wildcard.
type FieldSet uint16

// Match fields.
const (
	FInPort FieldSet = 1 << iota
	FEthDst
	FEthSrc
	FEthType
	FVLAN
	FIPSrc
	FIPDst
	FIPProto
	FL4Src
	FL4Dst
)

// Match is the typed 12-tuple match of a Rule (the OpenFlow 1.0 basic
// tuple the paper's switches all understand). Only fields named in Fields
// participate; everything else is wildcarded.
type Match struct {
	Fields  FieldSet
	InPort  int
	EthDst  pkt.MAC
	EthSrc  pkt.MAC
	EthType uint16
	VLAN    uint16 // VLAN ID (FVLAN set)
	IPSrc   [4]byte
	IPDst   [4]byte
	IPProto uint8
	L4Src   uint16
	L4Dst   uint16
}

// RuleActionKind enumerates what a rule does with a matching frame.
type RuleActionKind int

// Rule action kinds.
const (
	RuleOutput    RuleActionKind = iota // forward to Port
	RuleDrop                            // discard
	RuleSetEthDst                       // rewrite destination MAC, then continue
	RuleSetEthSrc                       // rewrite source MAC, then continue
)

// RuleAction is one action of a rule's action list.
type RuleAction struct {
	Kind RuleActionKind
	Port int     // RuleOutput
	MAC  pkt.MAC // RuleSetEthDst / RuleSetEthSrc
}

// DefaultRulePriority is the priority of rules that do not set one
// (OpenFlow's add-flow default).
const DefaultRulePriority = 32768

// Rule is one typed control-plane rule: a prioritized match plus an action
// list. Rules are plain values; Revoke identifies the installed rule by
// (Priority, Match) equality.
type Rule struct {
	// Priority orders overlapping rules (higher wins). 0 means
	// DefaultRulePriority.
	Priority int
	Match    Match
	Actions  []RuleAction
}

// EffectivePriority resolves the zero-value default.
func (r Rule) EffectivePriority() int {
	if r.Priority == 0 {
		return DefaultRulePriority
	}
	return r.Priority
}

// Key is the identity Revoke matches on, as text for display and error
// messages: the effective priority plus the match (fields and constrained
// values). Two rules with equal Key address the same table slot. Nothing
// on the rule-update path formats it: each switch compares the same
// identity in its own table's terms.
func (r Rule) Key() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "p%d|f%04x", r.EffectivePriority(), uint16(r.Match.Fields))
	m := r.Match
	if m.Fields&FInPort != 0 {
		fmt.Fprintf(&sb, "|in%d", m.InPort)
	}
	if m.Fields&FEthDst != 0 {
		fmt.Fprintf(&sb, "|dd%x", m.EthDst)
	}
	if m.Fields&FEthSrc != 0 {
		fmt.Fprintf(&sb, "|ds%x", m.EthSrc)
	}
	if m.Fields&FEthType != 0 {
		fmt.Fprintf(&sb, "|et%04x", m.EthType)
	}
	if m.Fields&FVLAN != 0 {
		fmt.Fprintf(&sb, "|vl%d", m.VLAN)
	}
	if m.Fields&FIPSrc != 0 {
		fmt.Fprintf(&sb, "|is%v", m.IPSrc)
	}
	if m.Fields&FIPDst != 0 {
		fmt.Fprintf(&sb, "|id%v", m.IPDst)
	}
	if m.Fields&FIPProto != 0 {
		fmt.Fprintf(&sb, "|pr%d", m.IPProto)
	}
	if m.Fields&FL4Src != 0 {
		fmt.Fprintf(&sb, "|ls%d", m.L4Src)
	}
	if m.Fields&FL4Dst != 0 {
		fmt.Fprintf(&sb, "|ld%d", m.L4Dst)
	}
	return sb.String()
}

// Programmer is the runtime rule-management surface of a switch. Every
// switch implements it; switches whose data plane cannot take runtime
// updates return ErrNoRuntimeRules from Install and Revoke. Install of a
// rule whose Key is already present replaces it; Revoke of an absent rule
// reports an error. Each switch answers both from the tables its data
// plane looks up: there is no second record of the installed rules.
type Programmer interface {
	// Install adds (or replaces) a rule in the data plane, invalidating
	// whatever derived state (flow caches, recorded charge scripts) the
	// rule change could affect.
	Install(r Rule) error
	// Revoke removes the rule with r's Key, with the same invalidation
	// obligations as Install.
	Revoke(r Rule) error
}

// CrossConnectRules is the canned bidirectional port-patch program in
// in_port vocabulary: the pair of rules OvS/VPP/FastClick-style switches
// lower CrossConnect(a, b) into.
func CrossConnectRules(a, b int) []Rule {
	return []Rule{
		{Match: Match{Fields: FInPort, InPort: a}, Actions: []RuleAction{{Kind: RuleOutput, Port: b}}},
		{Match: Match{Fields: FInPort, InPort: b}, Actions: []RuleAction{{Kind: RuleOutput, Port: a}}},
	}
}

// CrossConnectMACRules is the canned cross-connect program in destination
// MAC vocabulary: match/action switches without port-based forwarding
// (t4p4s's l2fwd program) install these entries against the testbed's
// PortMAC convention: the b-side entry first, then the a-side.
func CrossConnectMACRules(a, b int) []Rule {
	return []Rule{
		{Match: Match{Fields: FEthDst, EthDst: PortMAC(b)}, Actions: []RuleAction{{Kind: RuleOutput, Port: b}}},
		{Match: Match{Fields: FEthDst, EthDst: PortMAC(a)}, Actions: []RuleAction{{Kind: RuleOutput, Port: a}}},
	}
}

// NoRuntimeRules implements Programmer for switches whose data plane
// cannot be reprogrammed at runtime; embed it to satisfy the interface.
type NoRuntimeRules struct{}

// Install implements Programmer.
func (NoRuntimeRules) Install(Rule) error { return ErrNoRuntimeRules }

// Revoke implements Programmer.
func (NoRuntimeRules) Revoke(Rule) error { return ErrNoRuntimeRules }
