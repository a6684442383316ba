package heap

import (
	"slices"
	"time"
)

// This file holds the heap's per-object tables and the CSR edge arena
// that holds every object's outgoing references. Each object has a
// HotRecord (everything the per-object hot paths read), a coldRecord
// (read only by Heap.Object) and its span capacity in ecap. Liveness,
// size and region are derived, not stored: an object is live iff its mark
// is not deadMark, its size is the high half of its mark/size word, and
// its region is the one its address lies in (the heap is the sole
// reserver of its address space, so region i spans
// [i·RegionSize, (i+1)·RegionSize)). Keeping references out of the
// records keeps every table pointer-free, so the Go collector never scans
// one.
//
// Edge-arena invariants:
//
//   - Object id owns edges[off : off+ecap[id]], where off lives in the
//     high half of its span word hot[id].Span (off<<32 | len); the first
//     len entries are its references. Spans of distinct slots never
//     overlap.
//   - Nothing keeps a pointer into the arena: Heap.Refs hands out a
//     three-index view of a span (edges[off : off+len : off+ecap]) that
//     is valid only until the next reference mutation, which may move the
//     span or the whole backing array.
//   - A span that outgrows its capacity is extended in place when it is
//     the arena's last span, otherwise relocated to the arena end; the
//     orphaned slots are counted in edgeWaste.
//   - Dead slots keep their spans so the next tenant of the recycled
//     ObjectID reuses the capacity (the span length is reset to 0 by
//     Alloc).
//   - When edgeWaste exceeds half the arena (and the arena is at least
//     compactMinArena entries), the arena is rewritten in ObjectID order:
//     every slot — live or dead — keeps its capacity, offsets become
//     ascending, edgeWaste returns to zero.
//
// All of this is deterministic in the operation history, so two replays of
// the same seed compact at the same moments and digests stay bitwise equal.

// HotRecord is the part of an object's state the per-object hot paths
// read: a trace visit, a mutator access, an allocation or an evacuation
// loads this one 32-byte record, which never straddles a cache line, and
// nothing else about the object.
type HotRecord struct {
	// MarkSize packs the object's byte size (high 32 bits) with its mark
	// generation (low 32). Dead slots and NilObject hold deadMark in the
	// mark half, so liveness needs no field of its own.
	MarkSize uint64
	// Span is the object's edge span: off<<32 | len, its references
	// Edges[off : off+len].
	Span uint64
	// Addr is the current virtual address (it changes on evacuation).
	Addr int64
	// LastAccess is the virtual time of the most recent mutator access.
	LastAccess time.Duration
}

// coldRecord is the rest of an object's state, read only by Heap.Object.
type coldRecord struct {
	Seq     uint64 // allocation sequence number
	AllocGC int32  // heap GC count at allocation
	Epoch   Epoch
}

// minSpanCap is the smallest capacity a non-empty span gets. Two covers
// the typical object (one or two outgoing references) while keeping the
// arena — and with it the trace loop's cache footprint — half the size a
// four-slot floor would give.
const minSpanCap = 2

// deadMark is the mark sentinel for dead slots (and NilObject). It
// compares above every live generation, so trace loops can fold the
// nil/dead/already-marked checks into one `mark >= gen` compare. KillObject
// sets it, Alloc clears it, and BeginTrace never issues it as a
// generation; an object is live iff its mark is not deadMark.
const deadMark = ^uint32(0)

// spanOffMask keeps the high half of a packed word: the offset of a span
// word (&= resets the span's length to zero) or the size of a mark/size
// word (| installs a new mark generation).
const spanOffMask uint64 = 0xffffffff_00000000

// packSpan packs a span offset and length into one span word.
func packSpan(off, n int32) uint64 {
	return uint64(uint32(off))<<32 | uint64(uint32(n))
}

// span unpacks hot[id].Span.
func (h *Heap) span(id ObjectID) (off, n int32) {
	v := h.hot[id].Span
	return int32(v >> 32), int32(uint32(v))
}

// compactMinArena is the arena size below which compaction is not worth
// the rewrite.
const compactMinArena = 4096

// growTables appends one zeroed entry to every per-object table. The
// common case reslices within capacity: fresh backing memory is zeroed by
// the runtime and slots past len are never written, so extending the
// length exposes a zero entry without any stores.
func (h *Heap) growTables() {
	n := len(h.hot) + 1
	if n <= cap(h.hot) && n <= cap(h.cold) && n <= cap(h.ecap) {
		h.hot = h.hot[:n]
		h.cold = h.cold[:n]
		h.ecap = h.ecap[:n]
		return
	}
	h.hot = append(h.hot, HotRecord{})
	h.cold = append(h.cold, coldRecord{})
	h.ecap = append(h.ecap, 0)
}

// Grow reserves room for objects more object-table entries and edges more
// edge-arena slots: the next objects fresh ObjectIDs and edges arena slots
// then extend their tables in place instead of regrowing them one append
// at a time. A table short of the room moves once into a freshly made
// array; no length, ObjectID, span or other value a caller can read
// changes. Like any allocation, it invalidates Refs views and SoA views.
//
// Capacity stays unobservable because every entry past len reads zero:
// growTables' reslice path and extendArena expose such entries without
// storing to them, so an entry left over from earlier use would hand a
// new object a stale span. Fresh arrays come from the runtime zeroed;
// reused memory must be cleared first, as Adopt does.
func (h *Heap) Grow(objects, edges int) {
	h.hot = slices.Grow(h.hot, objects)
	h.cold = slices.Grow(h.cold, objects)
	h.ecap = slices.Grow(h.ecap, objects)
	h.edges = slices.Grow(h.edges, edges)
}

// Tables is the storage behind a heap's object tables and edge arena,
// detached by Retire so that a new heap can Adopt it instead of
// allocating its own.
type Tables struct {
	hot   []HotRecord
	cold  []coldRecord
	ecap  []int32
	edges []ObjectID
}

// Cap returns how many object-table entries t has room for.
func (t Tables) Cap() int { return cap(t.hot) }

// TableCap returns how many object-table entries the heap has room for
// before its tables regrow.
func (h *Heap) TableCap() int { return cap(h.hot) }

// Retire detaches the object tables and edge arena of a heap whose
// process is dead, and drops everything else it holds in host memory:
// regions, roots, free lists, trace and evacuation scratch, and barriers.
// The address space and Stats stay. A retired heap answers only AS,
// Stats and the queries built on them; nothing may allocate, trace or
// collect on it again.
func (h *Heap) Retire() Tables {
	t := Tables{hot: h.hot, cold: h.cold, ecap: h.ecap, edges: h.edges}
	*h = Heap{AS: h.AS, VM: h.VM, stats: h.stats}
	return t
}

// Adopt moves the heap's object tables and edge arena into t's storage
// when t has room for more object-table entries than the heap's own
// tables, and otherwise leaves the heap as it is. It clears all four of
// t's arrays to their full capacity before copying the heap's entries in,
// so the reused memory reads exactly like the zeroed memory Grow would
// allocate: no length, ObjectID, span or other readable value changes.
// t must come from Retire and be adopted at most once.
func (h *Heap) Adopt(t Tables) {
	if t.Cap() <= cap(h.hot) {
		return
	}
	h.hot = append(clearAll(t.hot), h.hot...)
	h.cold = append(clearAll(t.cold), h.cold...)
	h.ecap = append(clearAll(t.ecap), h.ecap...)
	h.edges = append(clearAll(t.edges), h.edges...)
}

// clearAll zeroes s up to its capacity and returns it with length 0.
func clearAll[E any](s []E) []E {
	clear(s[:cap(s)])
	return s[:0]
}

// Refs returns id's outgoing references as a read-only view of its span
// in the edge arena (NilObject entries are empty slots). The view is valid
// until the next SetRef, AddRef or ClearRefs on this heap, any of which
// may move the arena; mutate references only through those calls. The
// capacity index stops an (erroneous) append through the view from
// clobbering a neighbouring span.
func (h *Heap) Refs(id ObjectID) []ObjectID {
	off, n := h.span(id)
	return h.edges[off : off+n : off+h.ecap[id]]
}

// appendEdge appends one reference to id's span.
func (h *Heap) appendEdge(id, to ObjectID) {
	_, n := h.span(id)
	if n == h.ecap[id] {
		h.growSpan(id, n+1)
	}
	off, _ := h.span(id)
	h.edges[off+n] = to
	h.hot[id].Span = packSpan(off, n+1)
}

// setEdge writes id's i-th reference slot, NilObject-filling any gap. Gap
// filling is explicit because a recycled span may still hold the dead
// tenant's edges beyond its length.
func (h *Heap) setEdge(id ObjectID, i int, to ObjectID) {
	need := int32(i + 1)
	if need > h.ecap[id] {
		h.growSpan(id, need)
	}
	off, n := h.span(id)
	for n < need {
		h.edges[off+n] = NilObject
		n++
	}
	h.edges[off+int32(i)] = to
	h.hot[id].Span = packSpan(off, n)
}

// extendArena grows the arena's length by add slots without initialising
// them. Uninitialised (or stale) slots are never visible: a span exposes
// only its first len entries, appendEdge stores before extending the
// length, and setEdge gap-fills explicitly.
func (h *Heap) extendArena(add int) {
	if n := len(h.edges) + add; n <= cap(h.edges) {
		h.edges = h.edges[:n]
	} else {
		h.edges = append(h.edges, make([]ObjectID, add)...)
	}
}

// growSpan gives id's span capacity for at least need edges: in place when
// the span ends the arena, otherwise by relocating it to the arena end
// (the old slots become edgeWaste).
func (h *Heap) growSpan(id ObjectID, need int32) {
	cur := h.ecap[id]
	newCap := cur * 2
	if newCap < minSpanCap {
		newCap = minSpanCap
	}
	for newCap < need {
		newCap *= 2
	}
	off, n := h.span(id)
	if cur > 0 && int(off)+int(cur) == len(h.edges) {
		h.extendArena(int(newCap - cur))
	} else {
		newOff := int32(len(h.edges))
		h.extendArena(int(newCap))
		copy(h.edges[newOff:newOff+n], h.edges[off:off+n])
		h.edgeWaste += int64(cur)
		h.hot[id].Span = packSpan(newOff, n)
	}
	h.ecap[id] = newCap
	h.maybeCompactEdges()
}

// maybeCompactEdges rewrites the arena once orphaned span slots dominate:
// slots are laid out in ascending ObjectID order, every slot keeps its
// capacity (so tenant-reuse behaviour is unchanged by compaction timing),
// and edgeWaste returns to zero.
func (h *Heap) maybeCompactEdges() {
	if len(h.edges) < compactMinArena || h.edgeWaste*2 <= int64(len(h.edges)) {
		return
	}
	total := 0
	for id := 1; id < len(h.ecap); id++ {
		total += int(h.ecap[id])
	}
	fresh := make([]ObjectID, total)
	pos := int32(0)
	for id := 1; id < len(h.ecap); id++ {
		off, n := h.span(ObjectID(id))
		copy(fresh[pos:pos+n], h.edges[off:off+n])
		h.hot[id].Span = packSpan(pos, n)
		pos += h.ecap[id]
	}
	h.edges = fresh
	h.edgeWaste = 0
}

// View is the collectors' window onto the heap's hot table and edge
// arena. Both slices are shared with (not copies of) the heap, indexed by
// ObjectID (Hot) or span offset (Edges), and valid until the next
// allocation grows the object table or the next reference mutation moves
// the arena — a trace does neither mid-pass, so capturing a View at the
// start of a pass is safe. Marking through the view (installing Gen in
// the low half of Hot[id].MarkSize) is equivalent to Heap.Mark.
type View struct {
	// Hot holds each object's hot record. An object is marked iff
	// uint32(Hot[id].MarkSize) == Gen; dead slots and NilObject hold a
	// sentinel above every generation, so uint32(Hot[id].MarkSize) >= Gen
	// reads as "do not visit" (dead, nil or already marked) in a single
	// compare — and the same load yields the size.
	Hot []HotRecord
	// Gen is the current mark generation (set by BeginTrace).
	Gen uint32
	// Edges is the CSR edge arena: object id's references are
	// Edges[off : off+len] for its span word Hot[id].Span = off<<32 | len.
	Edges []ObjectID
}

// SoAView returns the current view for a tracing pass.
func (h *Heap) SoAView() View {
	return View{Hot: h.hot, Gen: h.markGen, Edges: h.edges}
}
