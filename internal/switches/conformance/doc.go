// Package conformance cross-checks every registered switch data plane
// through the uniform switchdef.Switch interface: per-switch Poll
// microbenchmarks (BenchmarkSwitchPoll) and the reference-vs-memoized
// equivalence suite, which drives randomized multi-flow traffic, with and
// without mid-traffic rule churn, through each switch with the
// classification memo on and off and requires bit-identical observables.
// Only OvS keeps a memo (ovs.SetMemoDisabled); every other switch has one
// per-frame path, so for it the pair of runs is a plain determinism check.
// The package itself exports nothing; it exists so every switch gets the
// same treatment without the switch packages importing each other.
package conformance
