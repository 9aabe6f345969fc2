// Package procstart records when the process's package initialisation
// began, as nearly as a Go program can tell.
//
// Go initialises packages in dependency order and, among those that are
// ready, in import-path order. This package imports only "time", and its
// path sorts before repro/internal/..., so At is taken before any package
// of the system under test runs its init functions or initialises its
// package-level variables. The time from At to main is therefore what the
// system's own start-up costs, and the benchmark adds it to setup_s: work
// that a change moves from the timed cells into package initialisation
// shows there.
package procstart

import "time"

// At is when this package was initialised.
var At = time.Now()
