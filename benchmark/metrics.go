package main

import "repro/internal/core"

// metricDef names one metric: what BENCHMARK.json declares and what a run
// must print, no more and no less.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// exact marks a count the simulator makes: it repeats exactly on
	// every host, so two runs of the same code must agree on it.
	exact bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics of a timed run, each with the share of the
// parent's median by which it may worsen before a change is a regression.
// A bound is about three times the widest spread (quartile distance over
// median of ten runs with ten seeds) seen on any workload on the
// reference host, busy quarters of an hour included: host time 7 %,
// allocation counts 0.4 %, accuracy 3 %. Peak memory spread by 11 % and
// set-up by 15 % on suite_quick; they and host time get the widest bound
// there is.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "sim_pkts_per_host_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "allocs_per_sim_kpkt", Unit: "count", Better: lower, Bound: 0.02},
	{Name: "alloc_bytes_per_sim_pkt", Unit: "B", Better: lower, Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "paper_err_pct", Unit: "%", Better: lower, Bound: 0.10},
}

// perLayer are the metrics of a traced run.
var perLayer = layerDefs()

func layerDefs() []metricDef {
	d := []metricDef{
		{Name: "sim.steps", Unit: "count", Better: lower, exact: true},
		{Name: "sim.steps_per_sim_pkt", Unit: "ratio", Better: lower, exact: true},
		{Name: "sim.step_ns", Unit: "ns", Better: lower},
		{Name: "sim.rng_exp_ns", Unit: "ns", Better: lower},
		{Name: "tgen.emit_ns_per_frame", Unit: "ns", Better: lower},
		{Name: "tgen.allocs_per_kframe", Unit: "count", Better: lower},
		{Name: "nic.sendrx_ns_per_frame", Unit: "ns", Better: lower},
		{Name: "pkt.pool_getfree_ns", Unit: "ns", Better: lower},
		{Name: "pkt.pool_cold_get_ns", Unit: "ns", Better: lower},
		{Name: "pkt.pool_cold_bytes_per_buf", Unit: "B", Better: lower},
		{Name: "pkt.materialize_ns", Unit: "ns", Better: lower},
		{Name: "ring.burst_ns_per_frame", Unit: "ns", Better: lower},
		{Name: "vhost.host_copies", Unit: "count", Better: lower, exact: true},
		{Name: "vhost.crossing_ns_per_frame", Unit: "ns", Better: lower},
		{Name: "ptnet.crossing_ns_per_frame", Unit: "ns", Better: lower},
		{Name: "vm.l2fwd_ns_per_frame", Unit: "ns", Better: lower},
		{Name: "cost.charge_ns", Unit: "ns", Better: lower},
		{Name: "cpu.idle_poll_ns", Unit: "ns", Better: lower},
	}
	for _, name := range core.Switches {
		d = append(d,
			metricDef{Name: "switches." + name + ".poll_ns_per_frame", Unit: "ns", Better: lower},
			metricDef{Name: "switches." + name + ".cell_wall_s", Unit: "s", Better: lower})
	}
	d = append(d,
		metricDef{Name: "switches.ovs.install_revoke_us", Unit: "us", Better: lower},
		metricDef{Name: "switches.vpp.install_revoke_us", Unit: "us", Better: lower},
		metricDef{Name: "switches.ovs.emc_evictions", Unit: "count", Better: lower, exact: true},
		metricDef{Name: "switches.rule_updates", Unit: "count", Better: higher, exact: true},
		metricDef{Name: "flowtab.cache_lookup_ns", Unit: "ns", Better: lower},
		metricDef{Name: "stats.hist_add_ns", Unit: "ns", Better: lower},
		metricDef{Name: "topo.plan_us", Unit: "us", Better: lower},
		metricDef{Name: "core.cell_fixed_ms", Unit: "ms", Better: lower},
		metricDef{Name: "core.sim_pkts", Unit: "count", Better: higher, exact: true},
		metricDef{Name: "core.sim_drops", Unit: "count", Better: lower, exact: true},
		metricDef{Name: "core.cell_ms.p50", Unit: "ms", Better: lower},
		metricDef{Name: "core.cell_ms.p75", Unit: "ms", Better: lower})
	for _, g := range allGroups() {
		d = append(d, metricDef{Name: "core.cell_wall_s." + g, Unit: "s", Better: lower})
	}
	return append(d,
		metricDef{Name: "campaign.key_us", Unit: "us", Better: lower},
		metricDef{Name: "campaign.cache_put_us", Unit: "us", Better: lower},
		metricDef{Name: "campaign.warm_cell_us", Unit: "us", Better: lower},
		metricDef{Name: "campaign.warm_hit_rate", Unit: "ratio", Better: higher, exact: true},
		metricDef{Name: "campaign.cold_hit_rate", Unit: "ratio", Better: higher, exact: true},
		metricDef{Name: "campaign.parallel_speedup", Unit: "ratio", Better: higher},
		metricDef{Name: "fabric.lease_complete_us_per_cell", Unit: "us", Better: lower},
		metricDef{Name: "fabric.cache_get_us", Unit: "us", Better: lower},
		metricDef{Name: "fabric.cache_put_us", Unit: "us", Better: lower},
		metricDef{Name: "fabric.reissued", Unit: "count", Better: lower, exact: true},
		metricDef{Name: "attrib.wire_frac", Unit: "ratio", Better: lower},
		metricDef{Name: "attrib.switch_frac", Unit: "ratio", Better: lower},
		metricDef{Name: "attrib.guest_frac", Unit: "ratio", Better: lower},
		metricDef{Name: "attrib.fixed_frac", Unit: "ratio", Better: lower},
		metricDef{Name: "attrib.unexplained_frac", Unit: "ratio", Better: lower},
		metricDef{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower},
		metricDef{Name: "bench.wall_spread_pct", Unit: "%", Better: lower},
		metricDef{Name: "bench.first_setup_s", Unit: "s", Better: lower},
	)
}

// unitOf is the unit the named per-layer metric is defined in.
func unitOf(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmark: no per-layer metric is named " + name)
}

// runSeconds is how long one run measures, as BENCHMARK.json declares.
const runSeconds = 15

// manifest is BENCHMARK.json. A test holds the file at the root of the
// repository to what this returns.
func manifest() map[string]any {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []workloadDef
	for _, w := range workloads {
		ws = append(ws, workloadDef{w.name, w.why})
	}
	return map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	}
}
