package campaign

import "time"

// EventType classifies a progress event.
type EventType int

// The event types, one per cell state transition.
const (
	// EventStarted fires when a worker picks a cell up.
	EventStarted EventType = iota
	// EventFinished fires when a cell's simulation completes (including
	// core.Unsupported cells — an expected per-switch limit).
	EventFinished
	// EventCached fires when the result cache answers without running.
	EventCached
	// EventFailed fires when a cell errors, panics, or times out.
	EventFailed
)

// String implements fmt.Stringer.
func (t EventType) String() string {
	switch t {
	case EventStarted:
		return "started"
	case EventFinished:
		return "finished"
	case EventCached:
		return "cached"
	case EventFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Event is one progress notification. Done/Total/Elapsed/ETA/Rate are
// campaign-level aggregates stamped at emission time.
type Event struct {
	Type  EventType
	Index int    // spec index
	ID    string // spec ID
	Err   error  // failed/finished cells
	Wall  time.Duration
	// Worker is the executor identity: "local" for in-process and cached
	// cells, the worker ID for fabric cells.
	Worker string

	Done    int
	Total   int
	Elapsed time.Duration
	ETA     time.Duration // zero until the first cell completes
	Rate    float64       // cells per second
}
