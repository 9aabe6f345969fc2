package t4p4s

import "repro/internal/pkt"

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
// MAC. version counts output-visible mutations and invalidates memoized
// pipeline traversals.
type Table struct {
	entries map[pkt.MAC]Entry
	Default Entry

	version uint64

	Hits, Misses int64
}

// NewTable creates an exact-match table with a default (miss) entry.
func NewTable(def Entry) *Table {
	return &Table{entries: make(map[pkt.MAC]Entry), Default: def}
}

// Add installs (or replaces) the entry for a destination MAC.
func (t *Table) Add(dst pkt.MAC, e Entry) {
	t.entries[dst] = e
	t.version++
}

// Remove deletes the entry for a destination MAC, reporting whether it was
// present.
func (t *Table) Remove(dst pkt.MAC) bool {
	if _, ok := t.entries[dst]; !ok {
		return false
	}
	delete(t.entries, dst)
	t.version++
	return true
}

// lookup resolves the entry for a destination MAC. The second result
// reports whether an installed entry matched (false means the default
// entry was returned).
func (t *Table) lookup(dst pkt.MAC) (Entry, bool) {
	if e, ok := t.entries[dst]; ok {
		t.Hits++
		return e, true
	}
	t.Misses++
	return t.Default, false
}
