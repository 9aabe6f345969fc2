//go:build race

package nic

// raceEnabled reports whether the race detector is on. It allocates for
// itself, so the tests that bound allocations skip under it.
const raceEnabled = true
