package t4p4s

import (
	"repro/internal/flowtab"
	"repro/internal/pkt"
)

// ActionID selects a table action.
type ActionID int

// Supported actions.
const (
	ActForward   ActionID = iota // send to Port
	ActDrop                      // discard
	ActSetDstMAC                 // rewrite dl_dst to MAC, then send to Port
)

// Entry is a table entry's action data.
type Entry struct {
	Action ActionID
	Port   int
	MAC    pkt.MAC
}

// Table is the l2fwd program's exact-match table keyed on the destination
// MAC. Entries live in an open-addressed byte-keyed map. version counts
// output-visible mutations and invalidates memoized pipeline traversals.
type Table struct {
	Name    string
	entries *flowtab.ByteMap[Entry]
	Default Entry

	// shadow mirrors the entries by key string: the arena ByteMap has no
	// delete, so Remove rebuilds it from this ledger.
	shadow map[string]Entry

	version uint64

	Hits, Misses int64
}

// NewTable creates an exact-match table with a default (miss) entry.
func NewTable(name string, def Entry) *Table {
	return &Table{Name: name, entries: flowtab.NewByteMap[Entry](8), Default: def}
}

// Add installs an entry keyed by the destination MAC bytes.
func (t *Table) Add(keyBytes []byte, e Entry) {
	t.entries.Put(keyBytes, e)
	if t.shadow == nil {
		t.shadow = make(map[string]Entry)
	}
	t.shadow[string(keyBytes)] = e
	t.version++
}

// Remove deletes an entry, reporting whether it was present. The backing
// ByteMap is arena-allocated with no per-key delete, so the table is
// rebuilt from the shadow ledger; probe layout is not observable (the
// lookup charge is flat), so the rebuild order cannot move any output.
func (t *Table) Remove(keyBytes []byte) bool {
	if _, ok := t.shadow[string(keyBytes)]; !ok {
		return false
	}
	delete(t.shadow, string(keyBytes))
	t.entries = flowtab.NewByteMap[Entry](8)
	for k, e := range t.shadow {
		t.entries.Put([]byte(k), e)
	}
	t.version++
	return true
}

// lookup resolves the entry for the given key bytes. The second result
// reports whether an installed entry matched (false means the default
// entry was returned).
func (t *Table) lookup(key []byte) (Entry, bool) {
	if e, ok := t.entries.Get(key); ok {
		t.Hits++
		return e, true
	}
	t.Misses++
	return t.Default, false
}
