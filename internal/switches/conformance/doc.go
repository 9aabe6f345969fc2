// Package conformance cross-checks every registered switch data plane
// through the uniform switchdef.Switch interface: per-switch Poll
// microbenchmarks (BenchmarkSwitchPoll) and equivalence suites. One drives
// randomized multi-flow traffic, with and without mid-traffic rule churn,
// through each switch as template-backed frames and again as materialized
// ones, and requires bit-identical observables; only OvS reads templates
// (it reuses a port's parsed flow key while its template repeats), so for
// every other switch the pair of runs is a plain determinism check. Another
// holds each switch's run path to the same traffic sent frame by frame,
// and a third holds each switch's data-plane ledger (switchdef.Counters)
// to the frames its ports received and transmitted.
// The package itself exports nothing; it exists so every switch gets the
// same treatment without the switch packages importing each other.
package conformance
