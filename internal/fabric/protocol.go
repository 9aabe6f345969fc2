// Package fabric runs campaign cells on a fleet: a coordinator leases
// cells to worker daemons over HTTP in a work-stealing pull model, and a
// cache server exports the content-addressed result store so machines
// dedupe each other's measurements. The fleet is only an executor —
// Coordinator.Execute runs one cell — behind the one campaign loop,
// campaign.Orchestrator; NewRunner builds that orchestrator.
//
// Cells are the same deterministic single-host simulations, addressed by
// the same content keys (canonical Config + cost.ModelVersion), so a
// fabric run is byte-identical to a local run of the same campaign — and
// any worker's result is valid for any requester that agrees on the key.
// On one host the fleet only ties the local worker pool: its
// lease/complete round trip costs about 0.2 ms per cell.
package fabric

import (
	"errors"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
)

// Cell is one leased unit of work: a campaign cell plus the
// coordinator's id for it and its content address. Key doubles as a
// version handshake — a worker whose locally recomputed key disagrees
// must not run the cell, because its cost model or config
// canonicalization differs from the coordinator's.
type Cell struct {
	// Seq is the coordinator's cell id; the completion echoes it.
	Seq int    `json:"seq"`
	ID  string `json:"id"`
	Key string `json:"key"`

	Config core.Config `json:"config"`

	// TimeoutMs is the coordinator's per-cell wall-clock budget
	// (0 = unlimited); workers honor it with the shared per-cell
	// isolation path.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// LeaseResponse answers POST /lease.
type LeaseResponse struct {
	Cells []Cell `json:"cells"`
	// Shutdown tells an idle worker the coordinator is draining for good:
	// stop polling and exit.
	Shutdown bool `json:"shutdown,omitempty"`
}

// Completion reports one executed cell back to the coordinator.
type Completion struct {
	Seq    int    `json:"seq"`
	Worker string `json:"worker"`

	Result *core.Result `json:"result,omitempty"`

	Err      string  `json:"err,omitempty"`
	ErrKind  string  `json:"err_kind,omitempty"`
	Panicked bool    `json:"panicked,omitempty"`
	Stack    string  `json:"stack,omitempty"`
	Cached   bool    `json:"cached,omitempty"`
	WallMs   float64 `json:"wall_ms"`
}

// The wire error kinds. Sentinel identity must survive the HTTP hop:
// campaign.CellFailed and the figure suites tell the per-switch limits
// (core.Unsupported) from real failures with errors.Is, which a bare
// string cannot satisfy.
const (
	errKindChainTooLong   = "chain_too_long"
	errKindNoMultiCore    = "no_multicore"
	errKindNoRuntimeRules = "no_runtime_rules"
	errKindTimeout        = "timeout"
	errKindPanicked       = "panicked"
	errKindVersionSkew    = "version_skew"
	errKindOther          = "other"
)

// encodeErr maps an outcome error to its wire (kind, message) pair.
func encodeErr(err error) (kind, msg string) {
	if err == nil {
		return "", ""
	}
	switch {
	case errors.Is(err, core.ErrChainTooLong):
		kind = errKindChainTooLong
	case errors.Is(err, core.ErrNoMultiCore):
		kind = errKindNoMultiCore
	case errors.Is(err, core.ErrNoRuntimeRules):
		kind = errKindNoRuntimeRules
	case errors.Is(err, campaign.ErrCellTimeout):
		kind = errKindTimeout
	case errors.Is(err, campaign.ErrCellPanicked):
		kind = errKindPanicked
	case errors.Is(err, ErrVersionSkew):
		kind = errKindVersionSkew
	default:
		kind = errKindOther
	}
	return kind, err.Error()
}

// wireError reconstructs a remote error: the exact remote message, with
// the sentinel restored behind Unwrap so errors.Is still works.
type wireError struct {
	msg      string
	sentinel error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

// decodeErr restores a wire (kind, message) pair to an error preserving
// both the message bytes and sentinel identity.
func decodeErr(kind, msg string) error {
	if kind == "" && msg == "" {
		return nil
	}
	var sentinel error
	switch kind {
	case errKindChainTooLong:
		sentinel = core.ErrChainTooLong
	case errKindNoMultiCore:
		sentinel = core.ErrNoMultiCore
	case errKindNoRuntimeRules:
		sentinel = core.ErrNoRuntimeRules
	case errKindTimeout:
		sentinel = campaign.ErrCellTimeout
	case errKindPanicked:
		sentinel = campaign.ErrCellPanicked
	case errKindVersionSkew:
		sentinel = ErrVersionSkew
	}
	if sentinel == nil {
		return errors.New(msg)
	}
	if sentinel.Error() == msg {
		return sentinel
	}
	return &wireError{msg: msg, sentinel: sentinel}
}

// ErrVersionSkew reports a worker whose locally computed content address
// for a leased cell disagrees with the coordinator's — its binary runs a
// different cost model or config canonicalization, so executing the cell
// would silently mix incompatible measurements.
var ErrVersionSkew = errors.New("fabric: worker/coordinator cache-key mismatch (cost model or config canonicalization skew)")

func versionSkewErr(cell Cell, localKey string) error {
	return fmt.Errorf("%w: cell %s: coordinator key %.12s…, worker key %.12s…",
		ErrVersionSkew, cell.ID, cell.Key, localKey)
}
