package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

// The golden digests below were produced by the pre-optimization engine
// (container/heap scheduler, eager frame materialization, one event per
// rate-paced frame). The optimized engine must reproduce them bit for bit:
// every Result field including the Steps fingerprint for the saturating
// fig4a grid, and every campaign cache key. They are tied to the cost
// model generation — a deliberate recalibration bumps cost.ModelVersion
// and re-pins them; anything else that moves these digests is a silent
// behaviour change in the engine.
//
// The results digest was re-pinned once after the guest-path fast-path PR:
// Result gained the HostCopies field and the Drops window-accounting fix
// (warmup drops no longer pollute the measured window). Sim packets,
// throughput, latency, and Steps were byte-identical across the re-pin
// (verified by bench.Compare against the pre-PR engine); the cache-key
// digest is unchanged.
const (
	goldenModelVersion     = "conext19-cal1"
	goldenFig4aResultsHash = "3f3a9342e21c9678376dc463046c88640efae7dba769685d53fa73ee6148fcdd"
	goldenFig4aKeysHash    = "b8c26c28d80f66b71a9c111af59d9249cd6fece89177bdbdd94fede2012d80e4"
)

// regressionOpts pins the window the digests were recorded under.
var regressionOpts = core.RunOpts{Duration: units.Millisecond, Warmup: 500 * units.Microsecond}

// fig4aDigests runs the fixed-seed fig4a campaign and returns a digest of
// the outcomes (full Results, spec order) and a digest of the sorted
// content-addressed cache keys.
func fig4aDigests(t *testing.T) (resultsHash, keysHash string) {
	t.Helper()
	c, err := Builtin("fig4a", regressionOpts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := New(context.Background(), Options{}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("fig4a cells failed: %v", rep.Err())
	}

	type cell struct {
		ID     string      `json:"id"`
		Result core.Result `json:"result"`
	}
	cells := make([]cell, len(rep.Outcomes))
	for i, out := range rep.Outcomes {
		cells[i] = cell{ID: out.Spec.ID, Result: out.Result}
	}
	blob, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	rh := sha256.Sum256(blob)

	keys := make([]string, len(c.Specs))
	for i, spec := range c.Specs {
		keys[i] = CacheKey(spec.Cfg)
	}
	sort.Strings(keys)
	kblob, err := json.Marshal(keys)
	if err != nil {
		t.Fatal(err)
	}
	kh := sha256.Sum256(kblob)
	return hex.EncodeToString(rh[:]), hex.EncodeToString(kh[:])
}

// TestEngineOutputMatchesSeedPath is the cross-build determinism
// regression for the engine's perf work: the optimized scheduler, lazy
// frame materialization, and batched generators must leave every simulated
// observable — and the campaign cache addressing — bit-identical to the
// seed engine that recorded the golden digests.
func TestEngineOutputMatchesSeedPath(t *testing.T) {
	if cost.ModelVersion != goldenModelVersion {
		t.Skipf("cost model recalibrated (%s -> %s): re-pin the golden digests", goldenModelVersion, cost.ModelVersion)
	}
	if testing.Short() {
		t.Skip("fig4a grid is too slow for -short")
	}
	// Classification memoization on, then force-disabled (the per-frame
	// reference path): the digests must not see the difference.
	for _, memo := range []string{"on", "off"} {
		t.Run("memo="+memo, func(t *testing.T) {
			prev := switchdef.SetMemoDisabled(memo == "off")
			defer switchdef.SetMemoDisabled(prev)
			resultsHash, keysHash := fig4aDigests(t)
			if os.Getenv("SWBENCH_PRINT_DIGESTS") != "" {
				t.Logf("fig4a results digest: %s", resultsHash)
				t.Logf("fig4a cache-key digest: %s", keysHash)
			}
			if resultsHash != goldenFig4aResultsHash {
				t.Errorf("fig4a results digest = %s, want %s (engine output diverged from the seed path)", resultsHash, goldenFig4aResultsHash)
			}
			if keysHash != goldenFig4aKeysHash {
				t.Errorf("fig4a cache-key digest = %s, want %s (campaign cache addressing changed)", keysHash, goldenFig4aKeysHash)
			}
		})
	}
}
