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
// Install/Revoke must retire whatever classification state (flow caches,
// recorded charge scripts) the switch derived before the edit.
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
// remove the installed rule on every switch that takes runtime rules.
func TestRevokeByKey(t *testing.T) {
	for _, name := range []string{"fastclick", "ovs", "t4p4s", "vpp"} {
		t.Run(name, func(t *testing.T) {
			s := newSUT(t, name)
			if !s.sw.Info().RuntimeRules {
				t.Fatalf("%s takes no runtime rules", name)
			}
			base := len(s.sw.Snapshot())
			r := shadowDropRule(1)
			if err := s.sw.Install(r); err != nil {
				t.Fatal(err)
			}
			if err := s.sw.Revoke(switchdef.Rule{Match: r.Match}); err != nil {
				t.Fatalf("Revoke by match alone: %v", err)
			}
			if got := len(s.sw.Snapshot()); got != base {
				t.Errorf("snapshot holds %d rules after revoke, want %d", got, base)
			}
		})
	}
}

// churnDigestCore drives the randomized multi-flow sequence of runDigest
// interleaved with randomized rule installs and revokes, and digests the
// same observables (delivered count, delivered bytes, charged cycles)
// plus the final rule ledger. It does not touch the process-global memo
// knob, so concurrent callers are safe.
func churnDigestCore(name string, seed uint64) (string, error) {
	env := switchtest.Env()
	sw, err := switchdef.New(name, env)
	if err != nil {
		return "", err
	}
	s := &sut{sw: sw, env: env, in: switchtest.NewFakePort("in"), out: switchtest.NewFakePort("out")}
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
	base := len(sw.Snapshot())

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
		// The rule op draws happen before the burst draws so the random
		// stream's alignment is identical in memoized and reference runs.
		if rng.Intn(4) == 0 {
			idx := rng.Intn(16)
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
			if got, want := len(sw.Snapshot()), base+len(live); got != want {
				return "", fmt.Errorf("%s: snapshot reports %d rules, want %d", name, got, want)
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
	return fmt.Sprintf("delivered=%d bytes=%016x cycles=%d rules=%d",
		delivered, h.Sum64(), s.m.Total(), len(live)), nil
}

// churnDigest runs churnDigestCore under the requested memo mode.
func churnDigest(t *testing.T, name string, seed uint64, disableMemo bool) string {
	t.Helper()
	prev := switchdef.SetMemoDisabled(disableMemo)
	defer switchdef.SetMemoDisabled(prev)
	d, err := churnDigestCore(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestChurnMemoizedMatchesReference requires every registered switch to
// produce bit-identical observables under randomized mid-traffic rule
// installs and revokes with classification memoization enabled and
// disabled: every Install/Revoke must invalidate exactly the recorded
// charge scripts the edit could have changed. The memo knob is
// process-global, so these subtests never call t.Parallel.
func TestChurnMemoizedMatchesReference(t *testing.T) {
	for _, name := range switchdef.Names() {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				ref := churnDigest(t, name, seed, true)
				memo := churnDigest(t, name, seed, false)
				if ref != memo {
					t.Errorf("seed %d: memoized churn run diverged from reference\n reference: %s\n memoized:  %s", seed, ref, memo)
				}
			}
		})
	}
}

// TestChurnConcurrentInstancesAgree runs four independent instances of
// each programmable switch through the same churn sequence on separate
// goroutines and requires identical digests: rule state, caches, and
// memo bookkeeping must be per-instance (race-clean under -race with
// GOMAXPROCS >= 4), never shared process state.
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
					digests[w], errs[w] = churnDigestCore(name, 7)
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
