package switchdef_test

import (
	"math/rand"
	"testing"

	"repro/internal/pkt"
	"repro/internal/switches/switchdef"
	"repro/internal/switches/switchtest"
)

// A switch's rule ledger is its own tables: Install lowers a rule into
// them and Revoke answers from them. The tests below run random Install /
// replace / Revoke sequences on every switch that takes runtime rules and
// hold each one's answers to a naive reference keyed by Key() text.

// ruleBytes reads a byte stream, yielding zeros once it runs out.
type ruleBytes struct {
	b []byte
}

func (s *ruleBytes) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// testMasks are the field sets rules draw from: every field alone, a few
// combinations and all ten, with in_port and dl_dst alone — the field sets
// every programmable switch lowers — drawn more often.
var testMasks = [...]switchdef.FieldSet{
	0, switchdef.FInPort, switchdef.FEthDst, switchdef.FEthSrc, switchdef.FEthType, switchdef.FVLAN,
	switchdef.FIPSrc, switchdef.FIPDst, switchdef.FIPProto, switchdef.FL4Src, switchdef.FL4Dst,
	switchdef.FInPort | switchdef.FEthDst, switchdef.FEthType | switchdef.FIPProto | switchdef.FL4Dst,
	1<<10 - 1, switchdef.FInPort, switchdef.FEthDst,
}

// ledgerPorts is how many ports each switch under test has.
const ledgerPorts = 4

// rule decodes one rule from a small domain, so identities collide often:
// four priorities (two of them the default), sixteen field sets, two
// values per constrained field, junk in every field the rule does not
// constrain, and a drop or an output to one of the ports.
func (s *ruleBytes) rule() switchdef.Rule {
	prios := [...]int{0, switchdef.DefaultRulePriority, 1, 7}
	r := switchdef.Rule{Priority: prios[s.next()%4]}
	fields := testMasks[s.next()%byte(len(testMasks))]
	pick := func(f switchdef.FieldSet) byte {
		if fields&f != 0 {
			return s.next() % 2
		}
		return s.next() // junk
	}
	r.Match = switchdef.Match{
		Fields:  fields,
		InPort:  int(pick(switchdef.FInPort)),
		EthDst:  pkt.MAC{2, 0, 0, 0, 0, pick(switchdef.FEthDst)},
		EthSrc:  pkt.MAC{2, 0, 0, 0, pick(switchdef.FEthSrc), 1},
		EthType: 0x0800 + uint16(pick(switchdef.FEthType)),
		VLAN:    uint16(pick(switchdef.FVLAN)),
		IPSrc:   [4]byte{10, pick(switchdef.FIPSrc), 0, 1},
		IPDst:   [4]byte{10, 0, pick(switchdef.FIPDst), 2},
		IPProto: pick(switchdef.FIPProto),
		L4Src:   uint16(pick(switchdef.FL4Src)),
		L4Dst:   uint16(pick(switchdef.FL4Dst)) << 8,
	}
	if a := s.next(); a%2 == 0 {
		r.Actions = []switchdef.RuleAction{{Kind: switchdef.RuleDrop}}
	} else {
		r.Actions = []switchdef.RuleAction{{Kind: switchdef.RuleOutput, Port: int(a/2) % ledgerPorts}}
	}
	return r
}

// refLedger is the naive reference: the rules a switch accepted, searched
// linearly by Key() text.
type refLedger struct{ rules []switchdef.Rule }

func (l *refLedger) find(r switchdef.Rule) int {
	for i, x := range l.rules {
		if x.Key() == r.Key() {
			return i
		}
	}
	return -1
}

func (l *refLedger) put(r switchdef.Rule) {
	if i := l.find(r); i >= 0 {
		l.rules[i] = r
		return
	}
	l.rules = append(l.rules, r)
}

// fixedWiring reports whether r is one of FastClick's in_port wiring
// rules, which the push graph keeps once installed: Revoke refuses them.
func fixedWiring(name string, r switchdef.Rule) bool {
	return name == "fastclick" && r.Match.Fields == switchdef.FInPort
}

// checkLedger runs the operation sequence data encodes — Install (a
// replace whenever the identity is already present) and Revoke — on every
// switch that takes runtime rules, and fails on the first revoke whose
// answer differs from the reference: a revoke succeeds exactly when a rule
// with its Key was accepted and not yet revoked. Every rule left at the
// end must revoke once and then be absent.
func checkLedger(t *testing.T, data []byte) {
	for _, name := range switchdef.Names() {
		if info, _ := switchdef.Lookup(name); !info.RuntimeRules {
			continue
		}
		sw, err := switchdef.New(name, env())
		if err != nil {
			t.Fatal(err)
		}
		switchtest.AddPorts(sw, ledgerPorts)
		var ref refLedger
		s := &ruleBytes{b: data}
		for op := 0; len(s.b) > 0; op++ {
			kind, r := s.next()%4, s.rule()
			if kind < 2 {
				if sw.Install(r) == nil {
					ref.put(r)
				}
				continue
			}
			err, i := sw.Revoke(r), ref.find(r)
			switch {
			case i < 0 && err == nil:
				t.Fatalf("%s op %d: Revoke(%s) removed a rule never installed", name, op, r.Key())
			case i >= 0 && err == nil:
				ref.rules = append(ref.rules[:i], ref.rules[i+1:]...)
			case i >= 0 && !fixedWiring(name, r):
				t.Fatalf("%s op %d: Revoke(%s) of an installed rule: %v", name, op, r.Key(), err)
			}
		}
		for _, r := range ref.rules {
			if fixedWiring(name, r) {
				continue
			}
			if err := sw.Revoke(r); err != nil {
				t.Fatalf("%s: installed rule %s does not revoke: %v", name, r.Key(), err)
			}
			if err := sw.Revoke(r); err == nil {
				t.Fatalf("%s: rule %s revoked twice", name, r.Key())
			}
		}
	}
}

// ledgerSeeds are the random operation sequences the property test runs,
// and the seed corpus of FuzzRuleLedger.
func ledgerSeeds() [][]byte {
	rng := rand.New(rand.NewSource(26))
	seeds := make([][]byte, 64)
	for i := range seeds {
		seeds[i] = make([]byte, 64+rng.Intn(512))
		rng.Read(seeds[i])
	}
	return seeds
}

// TestRuleLedgerMatchesReference runs random Install / replace / Revoke
// sequences against the naive Key()-keyed reference.
func TestRuleLedgerMatchesReference(t *testing.T) {
	for _, seed := range ledgerSeeds() {
		checkLedger(t, seed)
	}
}

// FuzzRuleLedger runs checkLedger on fuzzed operation sequences: on every
// switch that takes runtime rules, any sequence of Install, replacing
// Install and Revoke must answer each Revoke as the naive reference keyed
// by each rule's Key() does.
func FuzzRuleLedger(f *testing.F) {
	for _, seed := range ledgerSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkLedger)
}
