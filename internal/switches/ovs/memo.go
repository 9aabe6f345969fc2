package ovs

import (
	"os"
	"sync/atomic"
)

// noMemo force-disables OvS's template-keyed classification memo (see
// memoEntry), routing every frame through the per-frame reference classify
// path. It lives outside Config on purpose: the knob is a
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

// MemoDisabled reports whether the classification memo is disabled
// (SWBENCH_NO_MEMO, or SetMemoDisabled). Poll reads it once per call.
func MemoDisabled() bool { return noMemo.Load() }

// SetMemoDisabled overrides the memoization kill switch for the equivalence
// tests, returning the previous value. (A benchmark run measures the
// reference path with SWBENCH_NO_MEMO=1 in its environment.)
func SetMemoDisabled(v bool) bool { return noMemo.Swap(v) }
