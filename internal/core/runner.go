package core

import "errors"

// Runner executes a batch of independent measurement specs and returns one
// outcome per spec, in spec order regardless of completion order. It is the
// seam through which the experiment suites (Figure*, Table*) run their
// grids: SerialRunner is the in-package default, and internal/campaign
// provides a parallel, cached, panic-isolating implementation.
type Runner interface {
	RunAll(specs []Config) []SpecOutcome
}

// SpecOutcome is one cell's result of a batch execution.
type SpecOutcome struct {
	Result Result
	Err    error
}

// SerialRunner runs specs one after another on the calling goroutine — the
// paper's original single-threaded methodology.
type SerialRunner struct{}

// RunAll implements Runner.
func (SerialRunner) RunAll(specs []Config) []SpecOutcome {
	out := make([]SpecOutcome, len(specs))
	for i, cfg := range specs {
		out[i].Result, out[i].Err = Run(cfg)
	}
	return out
}

// Canonical returns cfg with all defaults applied: two configs describing
// the same measurement canonicalize identically, which is what
// content-addressed result caches key on.
func (cfg Config) Canonical() Config { return cfg.withDefaults() }

// Unsupported reports whether err is one of the per-switch limits the paper
// prints as "-" rather than a failure: a chain longer than the switch can
// host (ErrChainTooLong), several cores under an interrupt-driven switch
// (ErrNoMultiCore), rule updates on a fixed-function one (ErrNoRuntimeRules).
func Unsupported(err error) bool {
	return errors.Is(err, ErrChainTooLong) || errors.Is(err, ErrNoMultiCore) || errors.Is(err, ErrNoRuntimeRules)
}

// firstErr returns the first hard error in outs, if any; the suites render
// Unsupported cells as missing bars.
func firstErr(outs []SpecOutcome) error {
	for _, o := range outs {
		if o.Err != nil && !Unsupported(o.Err) {
			return o.Err
		}
	}
	return nil
}
