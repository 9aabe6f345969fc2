package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// TestManifestResume is the resume regression: a campaign interrupted
// after k cells, resumed against the same manifest, re-runs exactly the
// remaining cells — proven by an execution counter, not by timing.
func TestManifestResume(t *testing.T) {
	full := smallCampaign("resume")
	const k = 3

	path := filepath.Join(t.TempDir(), "resume.jsonl")
	m, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}

	// "Interrupted" first run: only the first k cells ever happened.
	partial := Campaign{Name: full.Name, Specs: full.Specs[:k]}
	var firstExecs atomic.Int64
	o := New(context.Background(), Options{Workers: 2, Manifest: m, Execute: runWith(func(cfg core.Config) (core.Result, error) {
		firstExecs.Add(1)
		return core.Run(cfg)
	})})
	firstRep, err := o.Run(partial)
	if err != nil || firstRep.Failed != 0 {
		t.Fatalf("partial run: %v / %v", err, firstRep.Err())
	}
	if n := firstExecs.Load(); n != k {
		t.Fatalf("partial run executed %d cells, want %d", n, k)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: reopen the ledger, run the FULL campaign.
	m2, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Len() != k {
		t.Fatalf("reloaded manifest has %d cells, want %d", m2.Len(), k)
	}
	var resumeExecs atomic.Int64
	o2 := New(context.Background(), Options{Workers: 2, Manifest: m2, Execute: runWith(func(cfg core.Config) (core.Result, error) {
		resumeExecs.Add(1)
		return core.Run(cfg)
	})})
	rep, err := o2.Run(full)
	if err != nil || rep.Failed != 0 {
		t.Fatalf("resume run: %v / %v", err, rep.Err())
	}
	if n := resumeExecs.Load(); n != int64(len(full.Specs)-k) {
		t.Fatalf("resume executed %d cells, want %d (only the remaining ones)", n, len(full.Specs)-k)
	}
	if rep.CacheHits != k {
		t.Fatalf("resume replayed %d cells, want %d", rep.CacheHits, k)
	}

	// Replayed cells carry the manifest identity and the recorded bytes.
	for i, out := range rep.Outcomes {
		if i < k {
			if !out.Cached || out.Worker != "manifest" {
				t.Fatalf("cell %d not replayed from manifest: %+v", i, out)
			}
			a, _ := json.Marshal(firstRep.Outcomes[i].Result)
			b, _ := json.Marshal(out.Result)
			if !bytes.Equal(a, b) {
				t.Fatalf("cell %d: replay diverged from recorded result", i)
			}
		} else if out.Cached {
			t.Fatalf("cell %d replayed but was never recorded", i)
		}
	}

	// A third run replays everything: the resume completed the ledger.
	m3, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if m3.Len() != len(full.Specs) {
		t.Fatalf("completed manifest has %d cells, want %d", m3.Len(), len(full.Specs))
	}
}

// TestManifestFailuresNotRecorded: failed cells must re-run on resume,
// so only error-free completions land in the ledger.
func TestManifestFailuresNotRecorded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fail.jsonl")
	m, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign{Name: "fail", Specs: []Spec{
		{Cfg: quickCfg("vpp", core.P2P)},
		{ID: "boom", Cfg: quickCfg("snabb", core.P2P)},
	}}
	o := New(context.Background(), Options{Workers: 1, Manifest: m, Execute: runWith(func(cfg core.Config) (core.Result, error) {
		if cfg.Switch == "snabb" {
			panic("injected")
		}
		return core.Run(cfg)
	})})
	if _, err := o.Run(c); err != nil {
		t.Fatal(err)
	}
	m.Close()

	m2, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Len() != 1 {
		t.Fatalf("manifest recorded %d cells, want only the healthy one", m2.Len())
	}
	if _, ok := m2.Lookup(CacheKey(c.Specs[1].Cfg)); ok {
		t.Fatal("failed cell was recorded as done")
	}
}

// TestManifestTornLine: a crash mid-append leaves a torn trailing line;
// loading must skip it and appending must not corrupt the next record.
func TestManifestTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	m, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	cfgA := quickCfg("vpp", core.P2P)
	resA, err := core.Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	m.Record(0, "a", "local", CacheKey(cfgA), resA)
	m.Close()

	// Simulate the crash: append half a record with no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"index":1,"id":"torn","status":"do`)
	f.Close()

	m2, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 1 {
		t.Fatalf("torn manifest loaded %d cells, want 1", m2.Len())
	}
	if _, ok := m2.Lookup(CacheKey(cfgA)); !ok {
		t.Fatal("intact record lost")
	}

	// The next append starts on a fresh line and reloads cleanly.
	cfgB := quickCfg("ovs", core.P2P)
	resB, err := core.Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	m2.Record(1, "b", "local", CacheKey(cfgB), resB)
	m2.Close()

	m3, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if m3.Len() != 2 {
		t.Fatalf("after torn-line append: %d cells, want 2", m3.Len())
	}
	if res, ok := m3.Lookup(CacheKey(cfgB)); !ok {
		t.Fatal("post-torn record lost")
	} else if a, b := mustJSON(t, resB), mustJSON(t, res); !bytes.Equal(a, b) {
		t.Fatalf("post-torn record corrupted: %s vs %s", a, b)
	}
}

// TestManifestVersionFiltered: records from a different cost-model
// version must not replay.
func TestManifestVersionFiltered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vers.jsonl")
	cfg := quickCfg("vpp", core.P2P)
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := ManifestRecord{
		Index: 0, ID: "old", Key: CacheKey(cfg), Version: "ancient/0.0",
		Status: "done", Worker: "local", Result: &res,
	}
	blob, _ := json.Marshal(rec)
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Len() != 0 {
		t.Fatal("stale-version record replayed")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
