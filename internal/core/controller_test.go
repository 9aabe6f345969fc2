package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/switches/switchdef"
)

// recorder is a Programmer that logs every operation.
type recorder struct{ installed, revoked []switchdef.Rule }

func (r *recorder) Install(rule switchdef.Rule) error {
	r.installed = append(r.installed, rule)
	return nil
}

func (r *recorder) Revoke(rule switchdef.Rule) error {
	r.revoked = append(r.revoked, rule)
	return nil
}

// TestRuleControllerRevokesOldestFirst: the controller installs a window of
// shadow rules, then alternates revoking the oldest live rule with
// installing the next, so that its ring of live rules wraps twice
// and every revoke names the rule installed a window earlier.
func TestRuleControllerRevokesOldestFirst(t *testing.T) {
	rec := &recorder{}
	c := newRuleController(sim.NewScheduler(), "ctl", rec, 1e6)
	const ops = 5 * shadowRuleWindow
	for i := 0; i < ops; i++ {
		if _, ok := c.Step(0); !ok {
			t.Fatalf("step %d: %v", i, c.Err)
		}
		// The window fills, then a revoke and an install alternate.
		wantLive := i + 1
		if i >= shadowRuleWindow {
			wantLive = shadowRuleWindow - (i-shadowRuleWindow+1)%2
		}
		if live := len(rec.installed) - len(rec.revoked); live != wantLive {
			t.Fatalf("step %d: %d rules live, want %d", i, live, wantLive)
		}
	}
	for i, r := range rec.installed {
		if r.Match != shadowRule(uint64(i)).Match {
			t.Fatalf("install %d is %v, want shadow rule %d", i, r.Match.EthDst, i)
		}
	}
	for i, r := range rec.revoked {
		if r.Match != rec.installed[i].Match {
			t.Fatalf("revoke %d is %v, want install %d's rule %v", i, r.Match.EthDst, i, rec.installed[i].Match.EthDst)
		}
	}
	if c.Updates() != ops || len(rec.revoked) != (ops-shadowRuleWindow)/2 {
		t.Fatalf("%d updates, %d revokes; want %d and %d", c.Updates(), len(rec.revoked), ops, (ops-shadowRuleWindow)/2)
	}
}

// TestShadowRulesShareActions: every shadow rule drops through the one
// shared action list, so installing a rule allocates no slice for it.
func TestShadowRulesShareActions(t *testing.T) {
	a, b := shadowRule(1), shadowRule(2)
	if len(a.Actions) != 1 || a.Actions[0].Kind != switchdef.RuleDrop {
		t.Fatalf("shadow rule actions %+v, want one drop", a.Actions)
	}
	if &a.Actions[0] != &b.Actions[0] {
		t.Error("two shadow rules carry separate action arrays")
	}
}
