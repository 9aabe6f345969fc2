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
// MAC, stored under its packed form (pkt.MAC.Key).
type Table struct {
	entries map[uint64]Entry
	Default Entry

	Hits, Misses int64
}

// NewTable creates an exact-match table with a default (miss) entry.
func NewTable(def Entry) *Table {
	return &Table{entries: make(map[uint64]Entry), Default: def}
}

// Add installs (or replaces) the entry for a destination MAC.
func (t *Table) Add(dst pkt.MAC, e Entry) {
	t.entries[dst.Key()] = e
}

// Remove deletes the entry for a destination MAC, reporting whether it was
// present.
func (t *Table) Remove(dst pkt.MAC) bool {
	k := dst.Key()
	if _, ok := t.entries[k]; !ok {
		return false
	}
	delete(t.entries, k)
	return true
}

// lookup resolves the entry for a destination MAC on behalf of n frames
// carrying it, counting n hits or n misses. The second result reports
// whether an installed entry matched (false means the default entry was
// returned).
func (t *Table) lookup(dst pkt.MAC, n int) (Entry, bool) {
	if e, ok := t.entries[dst.Key()]; ok {
		t.Hits += int64(n)
		return e, true
	}
	t.Misses += int64(n)
	return t.Default, false
}
