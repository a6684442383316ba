package gc

import (
	"time"

	"fleetsim/internal/heap"
)

// TraceStats aggregates what one tracing pass did. ObjectsTraced is the
// paper's "GC working set" metric (Fig. 12): the number of objects the GC
// thread actually accessed.
type TraceStats struct {
	ObjectsTraced int64
	BytesTraced   int64
	// FaultStall is swap-in time the GC thread's accesses incurred — the
	// direct measure of the GC↔swap conflict (§3.2).
	FaultStall time.Duration
	// CPU is the GC thread's compute time for this pass.
	CPU time.Duration
	// MaxDepth is the deepest level reached (BFS only).
	MaxDepth int
	// Err is the first vmem error hit while touching visited objects.
	// Marking always completes regardless — marks are metadata, so an
	// OOM'd trace still yields a correct live set and evacuation never
	// frees a reachable object.
	Err error
}

// TraceOpts controls a tracing pass.
type TraceOpts struct {
	// BFS selects breadth-first traversal with depth tracking (RGS's
	// grouping GC, §5.3.1); otherwise DFS (ART's default).
	BFS bool
	// ShouldTrace decides whether a newly discovered reference is visited
	// and descended into. Returning false marks the object live-by-fiat
	// without touching it — exactly how BGC treats foreground objects
	// (§5.2: "it considers this object as a live object and does not
	// access it"). Nil means trace everything.
	ShouldTrace func(id heap.ObjectID) bool
	// OnVisit is called for every visited object with its BFS depth
	// (-1 under DFS).
	OnVisit func(id heap.ObjectID, depth int)
	// NoTouch suppresses page touching for visits (used by Marvin, whose
	// bookmarking GC walks recorded reference stubs instead of the
	// objects themselves).
	NoTouch bool
	// ShouldTouch, when set, decides per object whether the visit touches
	// its pages; returning false models a bookmarked object whose
	// reference stub is consulted instead (Marvin, §2.2/[32]). Ignored
	// when NoTouch is set.
	ShouldTouch func(id heap.ObjectID) bool
	// Now is the virtual time of the pass (for page-access bookkeeping).
	Now time.Duration
}

// Trace marks every object reachable from seeds, honouring opts. Seeds are
// always visited (they are the root set, already known live). The heap's
// current mark generation must have been started by the caller via
// BeginTrace; marks survive until the next BeginTrace so collectors can
// consult them during evacuation.
//
// The work queue lives in the heap's TraceScratch and is reused across
// cycles, so a steady-state trace allocates nothing. Trace is not
// reentrant for a given heap (one GC thread per runtime, as on the
// device).
func Trace(h *heap.Heap, seeds []heap.ObjectID, opts TraceOpts) TraceStats {
	v := h.SoAView()
	if opts.ShouldTrace == nil && opts.OnVisit == nil && opts.NoTouch {
		return traceFast(h, v, seeds, opts.BFS)
	}
	var st TraceStats
	scratch := h.Scratch()
	queue := scratch.Queue[:0]
	// The callback-bearing loop also drives its mark checks through the
	// dense mark/size table: one 8-byte load per examined reference (the
	// dead sentinel folds in nil/dead, see traceFast) instead of loading
	// the 40-byte Object record per edge. Callbacks are pure predicates
	// over heap state, so skipping them for already-marked references
	// (which the table check does first) is unobservable. No callback
	// allocates, so the view stays valid.
	const hi32 uint64 = 0xffffffff_00000000
	ms, gen, gen64 := v.MarkSize, v.Gen, uint64(v.Gen)
	for _, id := range seeds {
		if id == heap.NilObject || !h.Object(id).Live() {
			continue
		}
		if h.Mark(id) {
			queue = append(queue, heap.TraceItem{ID: id, Depth: 0})
		}
	}

	visit := func(it heap.TraceItem) {
		o := h.Object(it.ID)
		st.ObjectsTraced++
		st.BytesTraced += int64(o.Size)
		st.CPU += visitCost(o.Size)
		if !opts.NoTouch && (opts.ShouldTouch == nil || opts.ShouldTouch(it.ID)) {
			stall, err := h.VM.TouchRange(h.AS, o.Addr, int64(o.Size), false)
			st.FaultStall += stall
			if err != nil && st.Err == nil {
				st.Err = err
			}
		}
		if int(it.Depth) > st.MaxDepth {
			st.MaxDepth = int(it.Depth)
		}
		if opts.OnVisit != nil {
			opts.OnVisit(it.ID, int(it.Depth))
		}
		for _, ref := range h.Refs(it.ID) {
			w := ms[uint32(ref)]
			if uint32(w) >= gen {
				continue // nil, dead or already marked
			}
			if opts.ShouldTrace != nil && !opts.ShouldTrace(ref) {
				// Live by fiat; mark so evacuation sees it, but
				// never touch or descend.
				ms[uint32(ref)] = w&hi32 | gen64
				continue
			}
			ms[uint32(ref)] = w&hi32 | gen64
			queue = append(queue, heap.TraceItem{ID: ref, Depth: it.Depth + 1})
		}
	}

	if opts.BFS {
		// FIFO with an index head; the slice IS the paper's mark queue
		// with its depth delimiters collapsed into per-item depths.
		for head := 0; head < len(queue); head++ {
			visit(queue[head])
		}
	} else {
		for len(queue) > 0 {
			it := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			it.Depth = -1
			visit(it)
		}
	}
	scratch.Queue = queue[:0] // return the (possibly grown) buffer
	return st
}

// traceLanes is the number of DFS chains the fast mark loop advances in
// lock-step; see the lane comment in traceFast.
const traceLanes = 4

// traceFast is the cache-linear mark loop for the common pure-marking pass
// (no callbacks, no page touching): it walks the heap's struct-of-arrays
// view — dense size/live/mark tables plus the CSR edge arena — so each
// visit reads a few contiguous bytes per object instead of loading Object
// records and chasing per-object ref slices.
//
// Observable results are identical to the generic loop even though the DFS
// visit order is not: a pure-marking pass reports only the mark set and
// commutative integer sums over it (objects, bytes, CPU — visitCost is a
// pure function of size), so any traversal that marks exactly the
// reachable set yields bit-identical TraceStats. BFS keeps the generic
// FIFO order because it additionally reports MaxDepth (depths tracked by
// level boundary instead of per item).
func traceFast(h *heap.Heap, v heap.View, seeds []heap.ObjectID, bfs bool) TraceStats {
	const hi32 uint64 = 0xffffffff_00000000
	var st TraceStats
	scratch := h.Scratch()
	q := scratch.MarkQ[:0]
	gen := v.Gen
	gen64 := uint64(gen)
	ms := v.MarkSize
	// The mark/size table folds liveness in: dead slots (and NilObject)
	// hold the dead sentinel in their mark half, which compares above
	// every generation, and live unmarked slots hold an older generation.
	// One load and one compare therefore covers nil-reference, dead and
	// already-marked at once — and its high half is the object's size,
	// which rides to the visit inside the queue word.
	for _, id := range seeds {
		w := ms[id]
		if uint32(w) >= gen {
			continue
		}
		hiw := w & hi32
		ms[id] = hiw | gen64
		q = append(q, hiw|uint64(uint32(id)))
	}
	spans, edges := v.EdgeSpans, v.Edges
	var objects, bytes int64
	var cpu time.Duration
	if bfs {
		depth, levelEnd := 0, len(q)
		for head := 0; head < len(q); head++ {
			if head == levelEnd {
				depth++
				levelEnd = len(q)
			}
			e := q[head]
			size := int32(e >> 32)
			objects++
			bytes += int64(size)
			cpu += visitCost(size)
			s := spans[uint32(e)]
			off := s >> 32
			for _, ref := range edges[off : off+(s&0xffffffff)] {
				w := ms[uint32(ref)]
				if uint32(w) >= gen {
					continue
				}
				hiw := w & hi32
				ms[uint32(ref)] = hiw | gen64
				q = append(q, hiw|uint64(uint32(ref)))
			}
		}
		st.MaxDepth = depth
	} else {
		// Pure marking reports only order-independent aggregates (the mark
		// set plus sums over it), so the traversal order is free. Exploit
		// that by draining a few DFS chains in lock-step: each lane holds
		// its chain's next entry in a register, so the serial
		// load-to-load dependency of pointer chasing (span word -> edge ->
		// mark word -> next span word) overlaps across lanes, while the
		// lane count stays small enough that the active pages of all
		// tables fit the TLB (unlike a full-width FIFO sweep).
		var lanes [traceLanes]uint64
		for {
			anyActive := false
			for i := range lanes {
				e := lanes[i]
				if e == 0 {
					n := len(q)
					if n == 0 {
						continue
					}
					e = q[n-1]
					q = q[:n-1]
				}
				anyActive = true
				size := int32(e >> 32)
				objects++
				bytes += int64(size)
				cpu += visitCost(size)
				s := spans[uint32(e)]
				off := s >> 32
				// Keep the newest discovery in the lane and push earlier
				// ones: a chain advances with no queue traffic. 0 is never
				// a valid entry (NilObject is never marked).
				next := uint64(0)
				for _, ref := range edges[off : off+(s&0xffffffff)] {
					w := ms[uint32(ref)]
					if uint32(w) >= gen {
						continue
					}
					hiw := w & hi32
					ms[uint32(ref)] = hiw | gen64
					if next != 0 {
						q = append(q, next)
					}
					next = hiw | uint64(uint32(ref))
				}
				lanes[i] = next
			}
			if !anyActive {
				break
			}
		}
	}
	st.ObjectsTraced = objects
	st.BytesTraced = bytes
	st.CPU = cpu
	scratch.MarkQ = q[:0]
	return st
}

// SeedBuf stages the heap's roots into the reusable seed buffer so a
// collector can append extra seeds (card-derived, stub-derived) without
// copying the root set through a fresh allocation each cycle.
func SeedBuf(h *heap.Heap) []heap.ObjectID {
	return append(h.Scratch().Seeds[:0], h.Roots()...)
}

// SaveSeeds returns the (possibly grown) seed buffer to the scratch.
func SaveSeeds(h *heap.Heap, seeds []heap.ObjectID) {
	h.Scratch().Seeds = seeds[:0]
}

// DepthTable is a dense ObjectID-indexed table of BFS shortest-path depths
// from the root set; Unreachable marks objects the trace never saw. Index
// it directly with an ObjectID (st[id]) or through Of for bounds safety.
type DepthTable []int32

// Unreachable is the DepthTable entry for objects not reached from roots.
const Unreachable int32 = -1

// Of returns the depth of id and whether it is reachable.
func (d DepthTable) Of(id heap.ObjectID) (int, bool) {
	if int(id) >= len(d) || d[id] == Unreachable {
		return 0, false
	}
	return int(d[id]), true
}

// Depths computes the BFS shortest-path depth from the root set for every
// reachable object, without touching pages (an analysis helper for the
// observation figures, Fig. 6). Roots have depth 0. The returned table is
// backed by the heap's scratch and is valid until the next Depths call.
func Depths(h *heap.Heap) DepthTable {
	scratch := h.Scratch()
	n := h.ObjectTableSize()
	if cap(scratch.Depths) < n {
		scratch.Depths = make([]int32, n)
	}
	depths := scratch.Depths[:n]
	for i := range depths {
		depths[i] = Unreachable
	}
	queue := scratch.Queue[:0]
	for _, id := range h.Roots() {
		if id != heap.NilObject && h.Object(id).Live() && depths[id] == Unreachable {
			depths[id] = 0
			queue = append(queue, heap.TraceItem{ID: id})
		}
	}
	for head := 0; head < len(queue); head++ {
		id := queue[head].ID
		d := depths[id]
		for _, ref := range h.Refs(id) {
			if ref == heap.NilObject || !h.Object(ref).Live() {
				continue
			}
			if depths[ref] == Unreachable {
				depths[ref] = d + 1
				queue = append(queue, heap.TraceItem{ID: ref})
			}
		}
	}
	scratch.Queue = queue[:0]
	scratch.Depths = depths
	return DepthTable(depths)
}
