// Package conformance cross-checks every registered switch data plane
// through the uniform switchdef.Switch interface. One function, drive,
// runs a script (a table row plus a seed, which draws every traffic decision:
// templates and flows, run lengths, a port no rule covers, a drop rule,
// the egress kind, TX refusals, rule churn) through a switch on fake ports
// in two presentations: template-backed buffers sent as runs, and
// materialized buffers sent frame by frame. Both must give bit-identical
// observables (cycles, the meter's next draw, every integer the switch
// holds, egress frames, live rules), and every pass must balance the
// switch's data-plane ledger (switchdef.Counters) against its ports and,
// with churn, meet the end-of-run revoke contract. Beside it sit the
// Revoke contract of the programmable switches (revoke by a rule's match
// alone included), a zero-allocation bound on a run's pass through each
// switch, and per-switch Poll microbenchmarks (BenchmarkSwitchPoll).
// The package itself exports nothing; it exists so every switch gets the
// same treatment without the switch packages importing each other.
package conformance
