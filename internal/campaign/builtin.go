package campaign

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/switches/switchdef"
)

// runnableOnce names cfgs as campaign cells under prefix, each runnable
// cell once: an experiment's grid may hold cells its switch cannot run (the
// figure prints those as "-") and repeat cells that two curves share, while
// a campaign measures what can be measured, exactly once. A repeat is the
// same cache key, not the same name: AutoID leaves fields out (Containers,
// Seed, the windows, Topology), so two distinct cells can share a name.
func runnableOnce(prefix string, cfgs []core.Config) []Spec {
	specs := make([]Spec, 0, len(cfgs))
	seen := make(map[string]bool, len(cfgs))
	for _, cfg := range cfgs {
		if info, err := switchdef.Lookup(cfg.Switch); err == nil {
			if cfg.SUTCores > 1 && info.IOMode == switchdef.InterruptMode {
				continue
			}
			if cfg.RuleUpdateRate > 0 && !info.RuntimeRules {
				continue
			}
		}
		key := CacheKey(cfg)
		if seen[key] {
			continue
		}
		seen[key] = true
		specs = append(specs, Spec{ID: prefix + "/" + AutoID(cfg), Cfg: cfg})
	}
	return specs
}

// experimentCampaign is the campaign name of a registry entry: fig4a … fig6
// and table4 for the paper's experiments, the bare id for an extension.
func experimentCampaign(e core.Experiment) string {
	switch {
	case e.Extension:
		return e.ID
	case e.Kind == "figure":
		return "fig" + e.ID
	}
	return e.Kind + e.ID
}

// experimentSpecs is the campaign of a registry entry with a flat grid.
func experimentSpecs(e core.Experiment, o core.RunOpts) []Spec {
	return runnableOnce(experimentCampaign(e), e.Specs(o))
}

// builtins maps each campaign name to its spec list. It starts as the two
// composite campaigns — "rplus", the saturating R+ grid of every switch x
// scenario, and "throughput", every throughput figure grid (Figs. 4a-c, 5,
// 6) — and init adds one campaign per registry entry with a flat grid.
var builtins = map[string]func(o core.RunOpts) []Spec{
	"rplus": func(o core.RunOpts) []Spec {
		var cfgs []core.Config
		for _, name := range core.Switches {
			for _, scn := range []core.ScenarioKind{core.P2P, core.P2V, core.V2V} {
				cfgs = append(cfgs, core.RPlusConfig(o.Apply(core.Config{Switch: name, Scenario: scn})))
			}
			for _, chain := range core.Chains {
				cfgs = append(cfgs, core.RPlusConfig(o.Apply(core.Config{
					Switch: name, Scenario: core.Loopback, Chain: chain,
				})))
			}
		}
		return runnableOnce("rplus", cfgs)
	},
	"throughput": func(o core.RunOpts) []Spec {
		var specs []Spec
		for _, e := range core.Experiments {
			if e.Kind == "figure" && !e.Extension && e.Specs != nil {
				specs = append(specs, experimentSpecs(e, o)...)
			}
		}
		return specs
	},
}

func init() {
	for _, e := range core.Experiments {
		if e.Specs != nil {
			builtins[experimentCampaign(e)] = func(o core.RunOpts) []Spec { return experimentSpecs(e, o) }
		}
	}
}

// Builtin returns the named campaign with o applied to every spec.
func Builtin(name string, o core.RunOpts) (Campaign, error) {
	specs, ok := builtins[name]
	if !ok {
		return Campaign{}, fmt.Errorf("campaign: unknown campaign %q (have %s)",
			name, strings.Join(BuiltinNames(), ", "))
	}
	return Campaign{Name: name, Specs: specs(o)}, nil
}

// BuiltinNames lists the registered campaign names, sorted.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
