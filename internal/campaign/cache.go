package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/cost"
)

// Store is the result-store contract the orchestrator (and the fabric
// workers) run against: a content-addressed map from canonical Config to
// Result. *Cache is the local on-disk implementation; internal/fabric
// layers an HTTP client and a tiered (local + remote) composition over
// the same interface.
type Store interface {
	// Get returns the stored result for cfg, if present and intact.
	Get(cfg core.Config) (core.Result, bool)
	// Put stores a result. Implementations swallow storage errors: a
	// store that cannot persist degrades to recomputation, it does not
	// fail the campaign.
	Put(cfg core.Config, res core.Result)
}

// Cache is a content-addressed on-disk result cache. The key is a SHA-256
// over the canonicalized Config (defaults applied, stable JSON field
// order) plus the cost-model version, so any config change — or a
// recalibration bump of cost.ModelVersion — misses and re-measures.
// Entries are self-describing JSON files; a corrupted or truncated entry
// reads as a miss and is overwritten by the recomputed result, never a
// fatal error.
type Cache struct {
	dir string
}

var _ Store = (*Cache)(nil)

// OpenCache opens (creating if needed) a cache directory.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: opening cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// entry is the on-disk format. Key and Version are stored redundantly so
// an entry validates itself on read.
type entry struct {
	Key     string      `json:"key"`
	Version string      `json:"version"`
	Config  core.Config `json:"config"`
	Result  core.Result `json:"result"`
}

// CacheKey returns cfg's content address under the current cost model:
// SHA-256 over cost.ModelVersion and the canonical config JSON,
// NUL-separated. It is what every result store — local dir, cache
// server, tiered composition — addresses by, and what makes remote
// execution safe: two machines agreeing on a key agree on the canonical
// config and the cost model, so either one's result is valid for both.
func CacheKey(cfg core.Config) string {
	blob, err := json.Marshal(cfg.Canonical())
	if err != nil {
		// Config is a plain value struct; Marshal cannot fail.
		panic(fmt.Sprintf("campaign: marshaling config: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(cost.ModelVersion))
	h.Write([]byte{0})
	h.Write(blob)
	return hex.EncodeToString(h.Sum(nil))
}

// EncodeEntry renders (cfg, res) as a self-describing cache entry blob
// under the current cost model, returning its content address. The blob
// is exactly what Cache persists and what the fabric cache protocol
// carries.
func EncodeEntry(cfg core.Config, res core.Result) (key string, blob []byte, err error) {
	key = CacheKey(cfg)
	blob, err = json.Marshal(entry{
		Key: key, Version: cost.ModelVersion,
		Config: cfg.Canonical(), Result: res,
	})
	return key, blob, err
}

// DecodeEntry validates blob as a cache entry for key — well-formed JSON,
// matching embedded key and current cost-model version, and a content
// address that recomputes from the embedded config — and returns its
// result. This recomputation is the integrity check the cache server
// applies to every PUT: a client cannot poison key K with a result
// measured under a different config or cost model.
func DecodeEntry(key string, blob []byte) (core.Result, bool) {
	var e entry
	if err := json.Unmarshal(blob, &e); err != nil {
		return core.Result{}, false
	}
	if e.Key != key || e.Version != cost.ModelVersion || CacheKey(e.Config) != key {
		return core.Result{}, false
	}
	return e.Result, true
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Get returns the cached result for cfg, if present and intact: a
// corrupted, stale or mismatched entry (see DecodeEntry) reads as a miss
// and is recomputed.
func (c *Cache) Get(cfg core.Config) (core.Result, bool) {
	key := CacheKey(cfg)
	blob, err := os.ReadFile(c.path(key))
	if err != nil {
		return core.Result{}, false
	}
	return DecodeEntry(key, blob)
}

// Put stores a result. Write errors are swallowed: a cache that cannot
// persist degrades to recomputation, it does not fail the campaign.
func (c *Cache) Put(cfg core.Config, res core.Result) {
	if key, blob, err := EncodeEntry(cfg, res); err == nil {
		c.writeAtomic(key, blob)
	}
}

// GetBlob returns the raw entry blob stored under key, validated — a
// corrupted or stale entry reads as a miss, exactly like Get.
func (c *Cache) GetBlob(key string) ([]byte, bool) {
	blob, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	if _, ok := DecodeEntry(key, blob); !ok {
		return nil, false
	}
	return blob, true
}

// PutBlob validates blob as an entry for key (recomputing the content
// address from the embedded config) and writes it atomically. Unlike Put,
// validation failures are reported: the cache server turns them into a
// rejected request rather than silently dropping a poisoned entry.
func (c *Cache) PutBlob(key string, blob []byte) error {
	if _, ok := DecodeEntry(key, blob); !ok {
		return fmt.Errorf("campaign: cache entry fails integrity check for key %.12s… (config/cost-model mismatch or corrupt blob)", key)
	}
	if !c.writeAtomic(key, blob) {
		return fmt.Errorf("campaign: persisting cache entry %.12s…", key)
	}
	return nil
}

// writeAtomic write-renames blob to key's path so concurrent workers and
// interrupted runs never leave a half-written entry at the final path.
func (c *Cache) writeAtomic(key string, blob []byte) bool {
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return false
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "put-*")
	if err != nil {
		return false
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return false
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	return true
}

// Len counts intact entries (test and stats helper).
func (c *Cache) Len() int {
	n, _ := c.Stats()
	return n
}

// Stats reports the cache's entry count and total size in bytes.
func (c *Cache) Stats() (entries int, bytes int64) {
	filepath.Walk(c.dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(path) == ".json" {
			entries++
			bytes += info.Size()
		}
		return nil
	})
	return entries, bytes
}
