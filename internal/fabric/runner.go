package fabric

import (
	"context"
	"math"

	"repro/internal/campaign"
)

// RunnerOptions configures the orchestrator NewRunner builds. Execute
// and Workers are set by NewRunner.
type RunnerOptions = campaign.Options

// NewRunner returns the campaign orchestrator that executes cells on the
// coordinator's fleet: cache hits stay local, the rest go through
// co.Execute. Cells in flight are not capped — the fleet's size bounds
// concurrency. ctx cancels in-flight campaigns (nil means
// context.Background()).
func NewRunner(ctx context.Context, co *Coordinator, opts RunnerOptions) *campaign.Orchestrator {
	opts.Execute = co.Execute
	opts.Workers = math.MaxInt
	return campaign.New(ctx, opts)
}
