package conformance

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/switches/switchdef"
	"repro/internal/switches/switchtest"
)

// shadowDropRule is the universally-lowerable churn operation: an
// EthDst→drop rule on a MAC no generated frame carries (the same shape
// the mid-run rule controller installs). Every programmable switch
// accepts it — OvS as an OpenFlow rule, t4p4s as a dmac table entry,
// VPP as an ACL arc entry, FastClick as a source-side filter — and each
// Install/Revoke must retire whatever classification state (flow caches)
// the switch derived before the edit.
func shadowDropRule(i int) switchdef.Rule {
	return switchdef.Rule{
		Match: switchdef.Match{
			Fields: switchdef.FEthDst,
			EthDst: pkt.MAC{0x0e, 0xc4, 0, 0, 0, byte(i)},
		},
		Actions: []switchdef.RuleAction{{Kind: switchdef.RuleDrop}},
	}
}

// TestRevokeByKey: Programmer identifies the rule to revoke by Key() —
// priority and match — so a rule value carrying only the match must
// remove the installed rule on every switch that takes runtime rules:
// revoking the full rule afterwards finds nothing.
func TestRevokeByKey(t *testing.T) {
	for _, name := range programmable {
		t.Run(name, func(t *testing.T) {
			if info, err := switchdef.Lookup(name); err != nil || !info.RuntimeRules {
				t.Fatalf("%s takes no runtime rules (%v)", name, err)
			}
			s := newSUT(t, name)
			r := shadowDropRule(1)
			if err := s.sw.Install(r); err != nil {
				t.Fatal(err)
			}
			if err := s.sw.Revoke(switchdef.Rule{Match: r.Match}); err != nil {
				t.Fatalf("Revoke by match alone: %v", err)
			}
			if err := s.sw.Revoke(r); err == nil {
				t.Error("the rule survived the revoke by match alone")
			}
		})
	}
}

// churnRules is how many shadow-rule identities the churn sequence draws
// from.
const churnRules = 16

// churnDigestCore drives the randomized multi-flow sequence of runDigest
// interleaved with randomized rule installs and revokes, and digests the
// same observables (delivered count, delivered bytes, charged cycles)
// plus the live rule count. At the end every churned identity must
// revoke exactly when it is live, so the switch's own tables hold the
// program the sequence left. materialize is runDigest's. It shares no
// state with other callers, so concurrent calls are safe.
func churnDigestCore(name string, seed uint64, materialize bool) (string, error) {
	env := switchtest.Env()
	sw, err := switchdef.New(name, env)
	if err != nil {
		return "", err
	}
	s := &sut{sw: sw, env: env, in: switchtest.NewFakePort("in"), out: switchtest.NewFakePort("out"), materialize: materialize}
	sw.AddPort(s.in)
	sw.AddPort(s.out)
	if err := sw.CrossConnect(0, 1); err != nil {
		return "", err
	}
	s.m = switchtest.Meter(env)

	info, err := switchdef.Lookup(name)
	if err != nil {
		return "", err
	}

	rng := sim.NewRNG(seed)
	const flows = 64
	tmpls := make([]*pkt.Template, flows)
	for i := range tmpls {
		tmpls[i] = flowTemplate(i)
	}
	h := fnv.New64a()
	delivered := 0
	live := map[int]bool{}
	for step := 0; step < 300; step++ {
		if rng.Intn(4) == 0 {
			idx := rng.Intn(churnRules)
			switch {
			case !info.RuntimeRules:
				if err := sw.Install(shadowDropRule(idx)); !errors.Is(err, switchdef.ErrNoRuntimeRules) {
					return "", fmt.Errorf("%s: Install returned %v, want ErrNoRuntimeRules", name, err)
				}
			case live[idx]:
				if err := sw.Revoke(shadowDropRule(idx)); err != nil {
					return "", fmt.Errorf("%s: revoke rule %d: %w", name, idx, err)
				}
				delete(live, idx)
			default:
				if err := sw.Install(shadowDropRule(idx)); err != nil {
					return "", fmt.Errorf("%s: install rule %d: %w", name, idx, err)
				}
				live[idx] = true
			}
		}
		for j, n := 0, 1+rng.Intn(32); j < n; j++ {
			s.push(tmpls[rng.Intn(flows)])
		}
		s.now = switchtest.PollUntilIdle(s.sw, s.m, s.now)
		for _, b := range s.out.Out {
			h.Write(b.View())
			b.Free()
			delivered++
		}
		s.out.Out = s.out.Out[:0]
	}
	if delivered == 0 {
		return "", fmt.Errorf("%s delivered nothing", name)
	}
	digest := fmt.Sprintf("delivered=%d bytes=%016x cycles=%d rules=%d",
		delivered, h.Sum64(), s.m.Total(), len(live))
	for idx := 0; idx < churnRules; idx++ {
		err := sw.Revoke(shadowDropRule(idx))
		switch {
		case !info.RuntimeRules:
			if !errors.Is(err, switchdef.ErrNoRuntimeRules) {
				return "", fmt.Errorf("%s: Revoke returned %v, want ErrNoRuntimeRules", name, err)
			}
		case live[idx] && err != nil:
			return "", fmt.Errorf("%s: live rule %d does not revoke: %w", name, idx, err)
		case !live[idx] && err == nil:
			return "", fmt.Errorf("%s: rule %d revoked but was never left installed", name, idx)
		}
	}
	return digest, nil
}

// churnDigest is churnDigestCore, failing t on an error.
func churnDigest(t *testing.T, name string, seed uint64, materialize bool) string {
	t.Helper()
	d, err := churnDigestCore(name, seed, materialize)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestChurnMemoizedMatchesReference is TestMemoizedMatchesReference under
// randomized mid-traffic rule installs and revokes, which must reach
// template-backed and materialized frames alike.
func TestChurnMemoizedMatchesReference(t *testing.T) {
	for _, name := range switchdef.Names() {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				ref := churnDigest(t, name, seed, true)
				memo := churnDigest(t, name, seed, false)
				if ref != memo {
					t.Errorf("seed %d: template-backed churn run diverged from materialized\n materialized: %s\n templates:    %s", seed, ref, memo)
				}
			}
		})
	}
}

// TestChurnConcurrentInstancesAgree runs four independent instances of
// each programmable switch through the same churn sequence on separate
// goroutines and requires identical digests: rule state and caches must
// be per-instance (race-clean under -race with GOMAXPROCS >= 4), never
// shared process state.
func TestChurnConcurrentInstancesAgree(t *testing.T) {
	for _, name := range switchdef.Names() {
		t.Run(name, func(t *testing.T) {
			const workers = 4
			digests := make([]string, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					digests[w], errs[w] = churnDigestCore(name, 7, false)
				}(w)
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				if errs[w] != nil {
					t.Fatal(errs[w])
				}
				if digests[w] != digests[0] {
					t.Errorf("instance %d diverged:\n %s\n vs\n %s", w, digests[w], digests[0])
				}
			}
		})
	}
}
