package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/units"
)

func TestCacheHitOnSameConfig(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg("vpp", core.P2P)
	if _, ok := cache.Get(cfg); ok {
		t.Fatal("empty cache hit")
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(cfg, res)
	got, ok := cache.Get(cfg)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("cached result differs: %+v vs %+v", got, res)
	}
	// A config spelled differently but canonically equal hits too: the
	// explicit defaults match cfg's implied ones.
	explicit := cfg
	explicit.FrameLen = 64
	explicit.Chain = 1
	explicit.Seed = 1
	explicit.SUTCores = 1
	if _, ok := cache.Get(explicit); !ok {
		t.Fatal("canonically-equal config missed")
	}
}

func TestCacheMissOnAnyFieldChange(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg("vpp", core.P2P)
	cache.Put(cfg, core.Result{Gbps: 1})

	variants := []core.Config{}
	v := cfg
	v.Switch = "ovs"
	variants = append(variants, v)
	v = cfg
	v.Scenario = core.V2V
	variants = append(variants, v)
	v = cfg
	v.FrameLen = 256
	variants = append(variants, v)
	v = cfg
	v.Bidir = true
	variants = append(variants, v)
	v = cfg
	v.Rate = 5 * units.Gbps
	variants = append(variants, v)
	v = cfg
	v.Seed = 7
	variants = append(variants, v)
	v = cfg
	v.Duration = units.Millisecond
	variants = append(variants, v)
	v = cfg
	v.Flows = 16
	variants = append(variants, v)
	for i, vc := range variants {
		if _, ok := cache.Get(vc); ok {
			t.Fatalf("variant %d unexpectedly hit (key collision with base?)", i)
		}
	}
}

// writeEntry stores e as cfg's entry, bypassing Put's encoding.
func writeEntry(t *testing.T, cache *Cache, cfg core.Config, e entry) {
	t.Helper()
	blob, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	path := cache.path(CacheKey(cfg))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCacheMissOnCostModelVersionBump(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg("vpp", core.P2P)
	cache.Put(cfg, core.Result{Gbps: 1})
	if _, ok := cache.Get(cfg); !ok {
		t.Fatal("baseline miss")
	}
	// An entry measured under another cost model must never be served.
	writeEntry(t, cache, cfg, entry{
		Key: CacheKey(cfg), Version: cost.ModelVersion + "-stale",
		Config: cfg.Canonical(), Result: core.Result{Gbps: 1},
	})
	if _, ok := cache.Get(cfg); ok {
		t.Fatal("stale cost-model version served as a hit")
	}
}

// TestCacheMissOnMismatchedConfig stores a well-formed entry with the
// right key and version but another config: the local tier must refuse
// it exactly as the cache server refuses it on PUT.
func TestCacheMissOnMismatchedConfig(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg("vpp", core.P2P)
	writeEntry(t, cache, cfg, entry{
		Key: CacheKey(cfg), Version: cost.ModelVersion,
		Config: quickCfg("ovs", core.P2P).Canonical(), Result: core.Result{Gbps: 1},
	})
	if _, ok := cache.Get(cfg); ok {
		t.Fatal("entry whose config does not hash to its key served as a hit")
	}
}

// FuzzDecodeEntry feeds arbitrary (key, blob) pairs to the decoder every
// cache tier and the cache server trust: it must never panic, and it may
// accept a blob only when the embedded config re-hashes to key.
func FuzzDecodeEntry(f *testing.F) {
	cfg := quickCfg("vpp", core.P2P)
	key, blob, err := EncodeEntry(cfg, core.Result{Gbps: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(key, blob)
	f.Add(CacheKey(quickCfg("ovs", core.P2P)), blob)
	f.Add(key, []byte(`{"key":"`+key+`","version":"`+cost.ModelVersion+`","config":{}}`))
	f.Fuzz(func(t *testing.T, key string, blob []byte) {
		if _, ok := DecodeEntry(key, blob); !ok {
			return
		}
		var e entry
		if err := json.Unmarshal(blob, &e); err != nil {
			t.Fatalf("accepted a blob that does not parse: %v", err)
		}
		if got := CacheKey(e.Config); got != key {
			t.Fatalf("accepted key %q for a config that hashes to %q", key, got)
		}
	})
}

func TestCacheCorruptedEntryRecomputed(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg("vpp", core.P2P)
	cache.Put(cfg, core.Result{Gbps: 42})
	path := cache.path(CacheKey(cfg))

	for _, garbage := range []string{"", "{", "not json at all", `{"key":"wrong","version":"x"}`} {
		if err := os.WriteFile(path, []byte(garbage), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := cache.Get(cfg); ok {
			t.Fatalf("corrupted entry %q served as a hit", garbage)
		}
	}

	// A campaign over the corrupted cache recomputes and heals it — no
	// fatal error.
	o := New(context.Background(), Options{Workers: 2, Cache: cache})
	rep, err := o.Run(Campaign{Name: "heal", Specs: []Spec{{Cfg: cfg}}})
	if err != nil || rep.Failed != 0 {
		t.Fatalf("campaign over corrupted cache: %v / %v", err, rep.Err())
	}
	if rep.CacheHits != 0 {
		t.Fatal("corrupted entry counted as a hit")
	}
	if got, ok := cache.Get(cfg); !ok || got.Gbps <= 0 {
		t.Fatalf("cache not healed: ok=%v res=%+v", ok, got)
	}
}

func TestCampaignCacheRoundTrip(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := smallCampaign("cached")
	cold := New(context.Background(), Options{Workers: 4, Cache: cache})
	rep1, err := cold.Run(c)
	if err != nil || rep1.Failed != 0 {
		t.Fatalf("cold run: %v / %v", err, rep1.Err())
	}
	if rep1.CacheHits != 0 {
		t.Fatalf("cold run hit the cache %d times", rep1.CacheHits)
	}
	warm := New(context.Background(), Options{Workers: 4, Cache: cache})
	rep2, err := warm.Run(c)
	if err != nil || rep2.Failed != 0 {
		t.Fatalf("warm run: %v / %v", err, rep2.Err())
	}
	if rep2.CacheHits != len(c.Specs) {
		t.Fatalf("warm hits = %d, want %d", rep2.CacheHits, len(c.Specs))
	}
	for i := range rep1.Outcomes {
		if !reflect.DeepEqual(rep1.Outcomes[i].Result, rep2.Outcomes[i].Result) {
			t.Fatalf("cell %d: cached result differs from measured", i)
		}
	}
}

// TestCacheResume is the resume regression: a campaign killed after k
// cells, re-run in full against the same cache, executes exactly the cells
// that never completed — the unrun ones and the one that failed — proven by
// an execution counter, not by timing.
func TestCacheResume(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	full := smallCampaign("resume")
	const k, failing = 3, 1
	n := len(full.Specs)

	// "Killed" first run: only the first k cells ever happened, and one of
	// them failed.
	partial := Campaign{Name: full.Name, Specs: full.Specs[:k]}
	o := New(context.Background(), Options{Workers: 2, Cache: cache, Execute: runWith(func(cfg core.Config) (core.Result, error) {
		if cfg == full.Specs[failing].Cfg {
			return core.Result{}, errors.New("injected")
		}
		return core.Run(cfg)
	})})
	first, err := o.Run(partial)
	if err != nil || first.Failed != 1 {
		t.Fatalf("partial run: err=%v failed=%d, want 1 failed cell", err, first.Failed)
	}

	var execs atomic.Int64
	o2 := New(context.Background(), Options{Workers: 2, Cache: cache, Execute: runWith(func(cfg core.Config) (core.Result, error) {
		execs.Add(1)
		return core.Run(cfg)
	})})
	rep, err := o2.Run(full)
	if err != nil || rep.Failed != 0 {
		t.Fatalf("resume run: %v / %v", err, rep.Err())
	}
	if got, want := execs.Load(), int64(n-k+1); got != want {
		t.Fatalf("resume executed %d cells, want %d (the unrun ones and the failed one)", got, want)
	}
	for i, out := range rep.Outcomes {
		served := i < k && i != failing
		if out.Cached != served {
			t.Fatalf("cell %d: cached=%v, want %v", i, out.Cached, served)
		}
		if served {
			a, _ := json.Marshal(first.Outcomes[i].Result)
			b, _ := json.Marshal(out.Result)
			if !bytes.Equal(a, b) {
				t.Fatalf("cell %d: served result differs from the first run's", i)
			}
		}
	}
}

// TestLadderReusesSaturatingRun verifies the EstimateRPlus →
// MeasureLatencyAt ladder shares one saturating simulation through the
// cache: profiling two load levels runs the R+ cell once.
func TestLadderReusesSaturatingRun(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := New(context.Background(), Options{Workers: 2, Cache: cache})
	cfg := quickCfg("bess", core.P2P)

	sat := core.RPlusConfig(cfg)
	outs := o.RunAll([]core.Config{sat})
	if outs[0].Err != nil {
		t.Fatal(outs[0].Err)
	}
	// The ladder's own saturating re-run must now be a hit.
	rep, err := o.Run(Campaign{Name: "ladder", Specs: []Spec{{Cfg: sat}}})
	if err != nil || rep.CacheHits != 1 {
		t.Fatalf("saturating run not reused: err=%v hits=%d", err, rep.CacheHits)
	}
}
