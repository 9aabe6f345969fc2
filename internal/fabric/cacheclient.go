package fabric

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

// CacheClient is the campaign.Store view of a remote cache server. Every
// failure — network, server, integrity — degrades to a miss (Get) or a
// dropped write (Put), matching the local cache's "recompute, never
// fail" contract. Entries are validated client-side too: a hostile or
// skewed server cannot inject a result whose content address does not
// recompute.
type CacheClient struct {
	base string
	http *http.Client
}

var _ campaign.Store = (*CacheClient)(nil)

// NewCacheClient returns a client for a cache server at base
// (e.g. "http://host:8711"; a bare host:port gets http:// prepended).
func NewCacheClient(base string) *CacheClient {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &CacheClient{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{Timeout: 30 * time.Second},
	}
}

func (c *CacheClient) url(key string) string { return c.base + "/cache/" + key }

// Get implements campaign.Store.
func (c *CacheClient) Get(cfg core.Config) (core.Result, bool) {
	key := campaign.CacheKey(cfg)
	resp, err := c.http.Get(c.url(key))
	if err != nil {
		return core.Result{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return core.Result{}, false
	}
	blob, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes))
	if err != nil {
		return core.Result{}, false
	}
	return campaign.DecodeEntry(key, blob)
}

// Put implements campaign.Store.
func (c *CacheClient) Put(cfg core.Config, res core.Result) {
	key, blob, err := campaign.EncodeEntry(cfg, res)
	if err != nil {
		return
	}
	req, err := http.NewRequest(http.MethodPut, c.url(key), bytes.NewReader(blob))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// Stats fetches the server's counters.
func (c *CacheClient) Stats() (CacheStats, error) {
	resp, err := c.http.Get(c.base + "/stats")
	if err != nil {
		return CacheStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return CacheStats{}, fmt.Errorf("fabric: cache stats: %s", resp.Status)
	}
	var st CacheStats
	if err := decodeJSON(resp.Body, &st); err != nil {
		return CacheStats{}, err
	}
	return st, nil
}

// Tiered composes a local and a remote result store: reads check the
// local tier first and write remote hits through to it, writes go to
// both. Either tier may be nil. This is what gives a worker (or a
// resubmitting user) warm-start behaviour: recalibrations and R+/latency
// ladders dedupe across machines via the remote tier while repeated
// local sweeps stay disk-fast.
type Tiered struct {
	Local  campaign.Store
	Remote campaign.Store
}

var _ campaign.Store = (*Tiered)(nil)

// NewTiered builds the composition, collapsing to the single non-nil
// tier when only one is configured (nil when both are).
func NewTiered(local, remote campaign.Store) campaign.Store {
	switch {
	case local == nil && remote == nil:
		return nil
	case local == nil:
		return remote
	case remote == nil:
		return local
	}
	return &Tiered{Local: local, Remote: remote}
}

// Get implements campaign.Store: local, then remote with write-through.
func (t *Tiered) Get(cfg core.Config) (core.Result, bool) {
	if res, ok := t.Local.Get(cfg); ok {
		return res, true
	}
	if res, ok := t.Remote.Get(cfg); ok {
		t.Local.Put(cfg, res)
		return res, true
	}
	return core.Result{}, false
}

// Put implements campaign.Store: write-through to both tiers.
func (t *Tiered) Put(cfg core.Config, res core.Result) {
	t.Local.Put(cfg, res)
	t.Remote.Put(cfg, res)
}
