// Package cardtable implements the byte-per-card remembered set Fleet's
// background-object GC uses to find references from foreground objects into
// the background heap (§5.2 of the paper). One card byte covers
// 1<<DefaultCardShift bytes of heap address space; the write barrier
// dirties the card for any written FGO, and the collector scans dirty
// cards to extend its root set.
package cardtable

import "fleetsim/internal/units"

// Card states. The paper's table is binary (CLEAR/DIRTY).
const (
	CardClear byte = 0
	CardDirty byte = 1
)

// DefaultCardShift matches Table 2 (CARD_SHIFT = 10, i.e. 1 KiB per card).
const DefaultCardShift = 10

// cardSize is the heap span one card covers.
const cardSize = int64(1) << DefaultCardShift

// Table is a card table covering a heap address space starting at 0.
type Table struct {
	cards []byte
	dirty int
}

// New creates a table covering heapBytes of address space (it grows on
// demand if the heap grows).
func New(heapBytes int64) *Table {
	return &Table{cards: make([]byte, TableBytesForHeap(heapBytes))}
}

// SizeBytes returns the memory footprint of the table itself — the paper's
// §7.3 memory-overhead discussion (4 MB table for a 4 GB heap at shift 10).
func (t *Table) SizeBytes() int64 { return int64(len(t.cards)) }

// cardIndex translates a heap address to a card index, growing the table as
// the heap's address space grows.
func (t *Table) cardIndex(addr int64) int {
	i := int(addr >> DefaultCardShift)
	for i >= len(t.cards) {
		t.cards = append(t.cards, make([]byte, len(t.cards)+64)...)
	}
	return i
}

// MarkDirty records a write to the object at addr (the write barrier's
// shift-and-store, §5.2).
func (t *Table) MarkDirty(addr int64) {
	i := t.cardIndex(addr)
	if t.cards[i] == CardClear {
		t.cards[i] = CardDirty
		t.dirty++
	}
}

// IsDirty reports whether addr's card is dirty.
func (t *Table) IsDirty(addr int64) bool {
	i := int(addr >> DefaultCardShift)
	return i < len(t.cards) && t.cards[i] == CardDirty
}

// DirtyCards returns the number of dirty cards.
func (t *Table) DirtyCards() int { return t.dirty }

// ScanDirty invokes fn with the address range covered by each dirty card,
// in ascending order. If clear is true the cards are cleared as they are
// visited (the collector's scan-and-reset).
func (t *Table) ScanDirty(clear bool, fn func(start, size int64)) {
	for i, c := range t.cards {
		if c != CardDirty {
			continue
		}
		fn(int64(i)*cardSize, cardSize)
		if clear {
			t.cards[i] = CardClear
			t.dirty--
		}
	}
}

// Clear resets the whole table (BGC initialises its table to empty after
// the separation GC, §5.2).
func (t *Table) Clear() {
	for i := range t.cards {
		t.cards[i] = CardClear
	}
	t.dirty = 0
}

// CardFor returns the inclusive address range covered by addr's card.
func (t *Table) CardFor(addr int64) (start, size int64) {
	return (addr >> DefaultCardShift) << DefaultCardShift, cardSize
}

// TableBytesForHeap is the §7.3 arithmetic helper: the card-table overhead
// for a heap of the given size.
func TableBytesForHeap(heapBytes int64) int64 {
	n := heapBytes >> DefaultCardShift
	if heapBytes&(cardSize-1) != 0 {
		n++
	}
	return n
}

// DefaultTableBytes reproduces the paper's "4 MB card table for the 4 GB
// heap" figure.
func DefaultTableBytes() int64 {
	return TableBytesForHeap(4 * units.GiB)
}
