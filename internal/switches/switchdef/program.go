// Unified control plane: the typed rule vocabulary every reprogrammable
// switch accepts at runtime.
//
// The paper configures each switch through its native surface — OpenFlow
// rule strings for OvS, match/action table entries for t4p4s, Click
// configuration programs for FastClick, CLI patch commands for VPP. The
// simulated switches have no such text front-ends: Programmer is their one
// rule surface, an OpenFlow-style Install/Revoke/Snapshot contract (the
// vocabulary BOFUSS-style softswitches standardize) over a typed Rule
// value. Controllers, fleets, examples and CrossConnect program every data
// plane the same way while each switch lowers rules straight into its own
// structures (OvS also bumps its memo generation, keeping its recorded
// charge scripts correct under churn).
package switchdef

import (
	"errors"
	"fmt"
	"slices"
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
// on the rule-update path formats it; RuleLedger compares the same
// identity as a ruleID.
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

// ruleID is Key's identity as a comparable value: the effective priority
// plus the match with every field not named in Fields zeroed, so two rules
// that differ only in an unconstrained field are the same slot.
type ruleID struct {
	prio  int
	match Match
}

func (r Rule) id() ruleID {
	m := r.Match
	z := Match{Fields: m.Fields}
	if m.Fields&FInPort != 0 {
		z.InPort = m.InPort
	}
	if m.Fields&FEthDst != 0 {
		z.EthDst = m.EthDst
	}
	if m.Fields&FEthSrc != 0 {
		z.EthSrc = m.EthSrc
	}
	if m.Fields&FEthType != 0 {
		z.EthType = m.EthType
	}
	if m.Fields&FVLAN != 0 {
		z.VLAN = m.VLAN
	}
	if m.Fields&FIPSrc != 0 {
		z.IPSrc = m.IPSrc
	}
	if m.Fields&FIPDst != 0 {
		z.IPDst = m.IPDst
	}
	if m.Fields&FIPProto != 0 {
		z.IPProto = m.IPProto
	}
	if m.Fields&FL4Src != 0 {
		z.L4Src = m.L4Src
	}
	if m.Fields&FL4Dst != 0 {
		z.L4Dst = m.L4Dst
	}
	return ruleID{r.EffectivePriority(), z}
}

// Programmer is the runtime rule-management surface of a switch. Every
// switch implements it; switches whose data plane cannot take runtime
// updates return ErrNoRuntimeRules from Install and Revoke (and an empty
// Snapshot). Install of a rule whose Key is already present replaces it;
// Revoke of an absent rule reports an error.
type Programmer interface {
	// Install adds (or replaces) a rule in the data plane, invalidating
	// whatever derived state (flow caches, recorded charge scripts) the
	// rule change could affect.
	Install(r Rule) error
	// Revoke removes the rule with r's Key, with the same invalidation
	// obligations as Install.
	Revoke(r Rule) error
	// Snapshot returns the installed rules in install order (replacing
	// keeps the original position). The slice is a copy.
	Snapshot() []Rule
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
// PortMAC convention. Order matters for bit-identity with the historical
// table fill: the b-side entry first, then the a-side.
func CrossConnectMACRules(a, b int) []Rule {
	return []Rule{
		{Match: Match{Fields: FEthDst, EthDst: PortMAC(b)}, Actions: []RuleAction{{Kind: RuleOutput, Port: b}}},
		{Match: Match{Fields: FEthDst, EthDst: PortMAC(a)}, Actions: []RuleAction{{Kind: RuleOutput, Port: a}}},
	}
}

// RuleLedger is the bookkeeping helper behind Snapshot: an ordered set of
// rules keyed by Rule.Key's identity (held as a ruleID, never as text).
// Switch implementations embed one and keep it in sync as they lower rules
// into their native structures. Get, a replacing Put and Delete do not
// allocate.
type RuleLedger struct {
	rules []Rule
	index map[ruleID]int
}

// Put records r (replacing an existing rule with the same Key in place)
// and reports whether it replaced.
func (l *RuleLedger) Put(r Rule) bool {
	if l.index == nil {
		l.index = make(map[ruleID]int)
	}
	k := r.id()
	if i, ok := l.index[k]; ok {
		l.rules[i] = r
		return true
	}
	l.index[k] = len(l.rules)
	l.rules = append(l.rules, r)
	return false
}

// Get returns the recorded rule with r's Key.
func (l *RuleLedger) Get(r Rule) (Rule, bool) {
	i, ok := l.index[r.id()]
	if !ok {
		return Rule{}, false
	}
	return l.rules[i], true
}

// Delete removes the rule with r's Key, reporting whether it was present.
// The later rules move up one place and are re-indexed: O(n), which the
// tables this ledger backs (tens of rules under churn) never notice.
func (l *RuleLedger) Delete(r Rule) bool {
	k := r.id()
	i, ok := l.index[k]
	if !ok {
		return false
	}
	delete(l.index, k)
	l.rules = slices.Delete(l.rules, i, i+1)
	for j := i; j < len(l.rules); j++ {
		l.index[l.rules[j].id()] = j
	}
	return true
}

// Len reports how many rules are recorded.
func (l *RuleLedger) Len() int { return len(l.rules) }

// Snapshot copies the recorded rules in install order.
func (l *RuleLedger) Snapshot() []Rule {
	out := make([]Rule, len(l.rules))
	copy(out, l.rules)
	return out
}

// NoRuntimeRules implements Programmer for switches whose data plane
// cannot be reprogrammed at runtime; embed it to satisfy the interface.
type NoRuntimeRules struct{}

// Install implements Programmer.
func (NoRuntimeRules) Install(Rule) error { return ErrNoRuntimeRules }

// Revoke implements Programmer.
func (NoRuntimeRules) Revoke(Rule) error { return ErrNoRuntimeRules }

// Snapshot implements Programmer.
func (NoRuntimeRules) Snapshot() []Rule { return nil }
