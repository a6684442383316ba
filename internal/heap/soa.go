package heap

// This file holds the struct-of-arrays side of the heap: the dense
// per-object tables (sizes, liveness, marks, region indexes) and the CSR
// edge arena that backs every Object.Refs slice. The layout exists for the
// GC trace hot path: a mark pass over the SoA view reads a few bytes per
// object from contiguous tables instead of loading scattered ~96-byte
// Object records and chasing per-object slice headers.
//
// Edge-arena invariants:
//
//   - Object id owns edges[off : off+ecap[id]], where off lives in the
//     high half of the packed span word espan[id] (off<<32 | len); the
//     first len entries are its references. Spans of distinct slots never
//     overlap.
//   - Object.Refs is a three-index alias of the span
//     (edges[off : off+len : off+ecap]), re-pointed by setRefsView
//     whenever the span's offset or length changes, and by
//     refreshRefViews whenever the arena's backing array moves.
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

// minSpanCap is the smallest capacity a non-empty span gets. Two covers
// the typical object (one or two outgoing references) while keeping the
// arena — and with it the trace loop's cache footprint — half the size a
// four-slot floor would give.
const minSpanCap = 2

// deadMark is the mark-table sentinel for dead slots (and NilObject). It
// compares above every live generation, so trace loops can fold the
// nil/dead/already-marked checks into one `marks[id] >= gen` compare.
// KillObject sets it, Alloc clears it, and BeginTrace skips the value when
// the generation counter wraps.
const deadMark = ^uint32(0)

// spanOffMask keeps the high half of a packed word: the offset of a span
// word (&= resets the span's length to zero) or the size of a mark/size
// word (| installs a new mark generation).
const spanOffMask uint64 = 0xffffffff_00000000

// packSpan packs a span offset and length into one espan word.
func packSpan(off, n int32) uint64 {
	return uint64(uint32(off))<<32 | uint64(uint32(n))
}

// span unpacks espan[id].
func (h *Heap) span(id ObjectID) (off, n int32) {
	v := h.espan[id]
	return int32(v >> 32), int32(uint32(v))
}

// compactMinArena is the arena size below which compaction is not worth
// the rewrite.
const compactMinArena = 4096

// growSoA appends one zeroed entry to every dense table, keeping them in
// lockstep with the object table (len(objects) has already been grown by
// the caller). The common case reslices within capacity: fresh backing
// memory is zeroed by the runtime and slots past len are never written,
// so extending the length exposes a zero entry without any stores.
func (h *Heap) growSoA() {
	n := len(h.objects)
	if n <= cap(h.msize) && n <= cap(h.liveb) && n <= cap(h.regionIdx) &&
		n <= cap(h.espan) && n <= cap(h.ecap) {
		h.msize = h.msize[:n]
		h.liveb = h.liveb[:n]
		h.regionIdx = h.regionIdx[:n]
		h.espan = h.espan[:n]
		h.ecap = h.ecap[:n]
		return
	}
	h.msize = append(h.msize, 0)
	h.liveb = append(h.liveb, 0)
	h.regionIdx = append(h.regionIdx, 0)
	h.espan = append(h.espan, 0)
	h.ecap = append(h.ecap, 0)
}

// setRefsView re-points the object's public Refs field at its current
// span. The capacity index stops an (erroneous) append through the view
// from clobbering a neighbouring span.
func (h *Heap) setRefsView(id ObjectID) {
	off, n := h.span(id)
	h.objects[id].Refs = h.edges[off : off+n : off+h.ecap[id]]
}

// refreshRefViews re-points every object's Refs alias; needed whenever the
// arena's backing array moves (growth reallocation or compaction). Cost is
// O(objects), amortized against the doubling growth that triggered it.
func (h *Heap) refreshRefViews() {
	for id := 1; id < len(h.objects); id++ {
		off, n := h.span(ObjectID(id))
		h.objects[id].Refs = h.edges[off : off+n : off+h.ecap[id]]
	}
}

// appendEdge appends one reference to id's span.
func (h *Heap) appendEdge(id, to ObjectID) {
	_, n := h.span(id)
	if n == h.ecap[id] {
		h.growSpan(id, n+1)
	}
	off, _ := h.span(id)
	h.edges[off+n] = to
	h.espan[id] = packSpan(off, n+1)
	h.setRefsView(id)
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
	h.espan[id] = packSpan(off, n)
	h.setRefsView(id)
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
	oldBacking := cap(h.edges)
	off, n := h.span(id)
	if cur > 0 && int(off)+int(cur) == len(h.edges) {
		h.extendArena(int(newCap - cur))
	} else {
		newOff := int32(len(h.edges))
		h.extendArena(int(newCap))
		copy(h.edges[newOff:newOff+n], h.edges[off:off+n])
		h.edgeWaste += int64(cur)
		h.espan[id] = packSpan(newOff, n)
	}
	h.ecap[id] = newCap
	if cap(h.edges) != oldBacking {
		h.refreshRefViews()
	} else {
		h.setRefsView(id)
	}
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
		h.espan[id] = packSpan(pos, n)
		pos += h.ecap[id]
	}
	h.edges = fresh
	h.edgeWaste = 0
	h.refreshRefViews()
}

// View is the collectors' window onto the heap's struct-of-arrays tables.
// All slices are shared with (not copies of) the heap, indexed by
// ObjectID, and valid until the next allocation grows the object table —
// a trace never allocates objects mid-pass, so capturing a View at the
// start of a pass is safe. Marking through the view (Marks[id] = Gen)
// is equivalent to Heap.Mark.
type View struct {
	// MarkSize packs each object's byte size (high 32 bits) with its mark
	// generation (low 32). An object is marked iff uint32(MarkSize[id]) ==
	// Gen; dead slots and NilObject hold a sentinel above every
	// generation, so uint32(MarkSize[id]) >= Gen reads as "do not visit"
	// (dead, nil or already marked) in a single compare — and the same
	// load yields the size.
	MarkSize []uint64
	// Live is 1 for live slots; Live[NilObject] is always 0, so the live
	// check subsumes the nil-reference check.
	Live []uint8
	// Gen is the current mark generation (set by BeginTrace).
	Gen uint32
	// EdgeSpans and Edges are the CSR edge arena: object id's span word is
	// off<<32 | len, its references Edges[off : off+len].
	EdgeSpans []uint64
	Edges     []ObjectID
}

// SoAView returns the current struct-of-arrays view for a tracing pass.
func (h *Heap) SoAView() View {
	return View{
		MarkSize:  h.msize,
		Live:      h.liveb,
		Gen:       h.markGen,
		EdgeSpans: h.espan,
		Edges:     h.edges,
	}
}
