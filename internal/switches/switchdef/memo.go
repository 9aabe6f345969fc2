package switchdef

import (
	"os"
	"sync/atomic"
)

// noMemo force-disables the template-keyed classification memoization in
// every switch data plane, routing all frames through the per-frame
// reference path. It lives outside Config on purpose: the knob is a
// host-execution-strategy choice with bit-identical simulated outputs, so
// it must not perturb campaign cache keys. core's TestPinnedGoldens and
// campaign's TestEngineOutputMatchesSeedPath run the pinned goldens with
// it set and unset.
var noMemo atomic.Bool

func init() {
	if os.Getenv("SWBENCH_NO_MEMO") != "" {
		noMemo.Store(true)
	}
}

// MemoDisabled reports whether classification memoization is globally
// disabled (SWBENCH_NO_MEMO, or SetMemoDisabled). Hot paths read it once
// per poll.
func MemoDisabled() bool { return noMemo.Load() }

// SetMemoDisabled overrides the memoization kill switch for the equivalence
// tests, returning the previous value. (A benchmark run measures the
// reference path with SWBENCH_NO_MEMO=1 in its environment.)
func SetMemoDisabled(v bool) bool { return noMemo.Swap(v) }
