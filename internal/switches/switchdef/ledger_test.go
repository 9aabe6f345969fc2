package switchdef

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/pkt"
)

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
// combinations, all ten, and one with a bit no field names.
var testMasks = [...]FieldSet{
	0, FInPort, FEthDst, FEthSrc, FEthType, FVLAN, FIPSrc, FIPDst, FIPProto, FL4Src, FL4Dst,
	FInPort | FEthDst, FEthType | FIPProto | FL4Dst, FIPSrc | FIPDst | FL4Src, 1<<10 - 1, 1<<12 | FVLAN,
}

// rule decodes one rule from a small domain, so identities collide often:
// four priorities (two of them the same effective priority), sixteen
// field sets, two values per constrained field, and junk in every field
// the rule does not constrain.
func (s *ruleBytes) rule(actionPort int) Rule {
	prios := [...]int{0, DefaultRulePriority, 1, 7}
	r := Rule{Priority: prios[s.next()%4], Actions: []RuleAction{{Kind: RuleOutput, Port: actionPort}}}
	fields := testMasks[s.next()%byte(len(testMasks))]
	pick := func(f FieldSet) byte {
		if fields&f != 0 {
			return s.next() % 2
		}
		return s.next() // junk
	}
	r.Match = Match{
		Fields:  fields,
		InPort:  int(pick(FInPort)),
		EthDst:  pkt.MAC{2, 0, 0, 0, 0, pick(FEthDst)},
		EthSrc:  pkt.MAC{2, 0, 0, 0, pick(FEthSrc), 1},
		EthType: 0x0800 + uint16(pick(FEthType)),
		VLAN:    uint16(pick(FVLAN)),
		IPSrc:   [4]byte{10, pick(FIPSrc), 0, 1},
		IPDst:   [4]byte{10, 0, pick(FIPDst), 2},
		IPProto: pick(FIPProto),
		L4Src:   uint16(pick(FL4Src)),
		L4Dst:   uint16(pick(FL4Dst)) << 8,
	}
	return r
}

// refLedger is the naive reference RuleLedger: a slice searched linearly
// by Key() text.
type refLedger struct{ rules []Rule }

func (l *refLedger) find(r Rule) int {
	for i, x := range l.rules {
		if x.Key() == r.Key() {
			return i
		}
	}
	return -1
}

func (l *refLedger) put(r Rule) bool {
	if i := l.find(r); i >= 0 {
		l.rules[i] = r
		return true
	}
	l.rules = append(l.rules, r)
	return false
}

func (l *refLedger) get(r Rule) (Rule, bool) {
	if i := l.find(r); i >= 0 {
		return l.rules[i], true
	}
	return Rule{}, false
}

func (l *refLedger) delete(r Rule) bool {
	i := l.find(r)
	if i < 0 {
		return false
	}
	l.rules = append(l.rules[:i], l.rules[i+1:]...)
	return true
}

// checkLedger runs the operation sequence data encodes — Put (a replace
// whenever the identity is already present), Delete and Get — on a
// RuleLedger and on refLedger, and fails on the first result, Len or
// Snapshot that differs.
func checkLedger(t *testing.T, data []byte) {
	var l RuleLedger
	var ref refLedger
	s := &ruleBytes{b: data}
	for op := 0; len(s.b) > 0; op++ {
		kind := s.next() % 4
		r := s.rule(op)
		switch kind {
		case 0, 1:
			if got, want := l.Put(r), ref.put(r); got != want {
				t.Fatalf("op %d Put(%s) replaced = %v, reference %v", op, r.Key(), got, want)
			}
		case 2:
			if got, want := l.Delete(r), ref.delete(r); got != want {
				t.Fatalf("op %d Delete(%s) = %v, reference %v", op, r.Key(), got, want)
			}
		case 3:
			got, ok := l.Get(r)
			want, wantOK := ref.get(r)
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d Get(%s) = %+v %v, reference %+v %v", op, r.Key(), got, ok, want, wantOK)
			}
		}
		if l.Len() != len(ref.rules) {
			t.Fatalf("op %d: Len %d, reference %d", op, l.Len(), len(ref.rules))
		}
	}
	if snap := l.Snapshot(); !reflect.DeepEqual(snap, ref.rules) && (len(snap) > 0 || len(ref.rules) > 0) {
		t.Fatalf("Snapshot differs from the reference:\n got %v\nwant %v", snap, ref.rules)
	}
}

// ledgerSeeds are the random operation sequences the property tests run,
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

// TestRuleIDMatchesKey: two rules have the same ruleID exactly when they
// have the same Key, whatever junk sits in the fields they leave
// unconstrained.
func TestRuleIDMatchesKey(t *testing.T) {
	var rules []Rule
	for _, seed := range ledgerSeeds() {
		s := &ruleBytes{b: seed}
		for len(s.b) > 0 {
			rules = append(rules, s.rule(0))
		}
	}
	ids, keys := make([]ruleID, len(rules)), make([]string, len(rules))
	for i, r := range rules {
		ids[i], keys[i] = r.id(), r.Key()
	}
	same, pairs := 0, len(rules)*(len(rules)-1)/2
	for i := range rules {
		for j := i + 1; j < len(rules); j++ {
			idEq, keyEq := ids[i] == ids[j], keys[i] == keys[j]
			if idEq != keyEq {
				t.Fatalf("id equal %v, Key equal %v:\n%+v\n%+v", idEq, keyEq, rules[i], rules[j])
			}
			if keyEq {
				same++
			}
		}
	}
	if same == 0 || same == pairs {
		t.Fatalf("%d of %d pairs share a Key: the domain decides nothing", same, pairs)
	}
}

// TestRuleLedgerMatchesReference runs random Put / replace / Delete / Get
// sequences against the naive Key()-keyed reference.
func TestRuleLedgerMatchesReference(t *testing.T) {
	for _, seed := range ledgerSeeds() {
		checkLedger(t, seed)
	}
}

func FuzzRuleLedger(f *testing.F) {
	for _, seed := range ledgerSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkLedger)
}

// TestRuleLedgerDoesNotAllocate: the churn path — Get, a replacing Put and
// a Delete that re-indexes the rules behind it — allocates nothing.
func TestRuleLedgerDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for itself: allocation bounds hold only without -race")
	}
	const n, runs = 32, 100
	rule := func(i int) Rule {
		return Rule{
			Match:   Match{Fields: FEthDst, EthDst: pkt.MAC{0x0e, 0xc4, 0, 0, 0, byte(i)}},
			Actions: []RuleAction{{Kind: RuleDrop}},
		}
	}
	ledger := func() *RuleLedger {
		l := &RuleLedger{}
		for i := 0; i < n; i++ {
			l.Put(rule(i))
		}
		return l
	}
	l, r := ledger(), rule(n/2)
	if avg := testing.AllocsPerRun(runs, func() { l.Get(r) }); avg != 0 {
		t.Errorf("Get: %v allocs", avg)
	}
	if avg := testing.AllocsPerRun(runs, func() { l.Put(r) }); avg != 0 {
		t.Errorf("replacing Put: %v allocs", avg)
	}
	ledgers := make([]*RuleLedger, runs+1) // AllocsPerRun calls once more to warm up
	for i := range ledgers {
		ledgers[i] = ledger()
	}
	next, d := 0, rule(1)
	if avg := testing.AllocsPerRun(runs, func() {
		if !ledgers[next].Delete(d) {
			t.Fatal("rule 1 absent")
		}
		next++
	}); avg != 0 {
		t.Errorf("Delete: %v allocs", avg)
	}
}
