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
	// ShouldTouch, when set, decides per object whether the visit touches
	// its pages; returning false models a bookmarked object whose
	// reference stub is consulted instead (Marvin, §2.2/[32]). Nil means
	// touch every visited object.
	ShouldTouch func(id heap.ObjectID) bool
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
	// The loop reads the heap's hot table directly: a visit takes its
	// size, address and edge span from the object's one 32-byte hot
	// record and its references from the edge arena. The mark/size word
	// folds liveness in — dead slots and NilObject hold a sentinel above
	// every generation, live unmarked slots an older one — so one load and
	// one compare cover nil, dead and already marked. ShouldTrace is a
	// pure predicate over heap state, so skipping it for already-marked
	// references (which that compare does first) is unobservable.
	//
	// Holding the tables across the loop is safe: no callback and no
	// TouchRange path (reclaim, the pressure killer) allocates an object
	// or writes a reference on this heap, so neither the hot table nor
	// the edge arena moves mid-pass.
	const hi32 uint64 = 0xffffffff_00000000
	v := h.SoAView()
	hot, gen, gen64, edges := v.Hot, v.Gen, uint64(v.Gen), v.Edges
	bfs, shouldTrace, shouldTouch, onVisit := opts.BFS, opts.ShouldTrace, opts.ShouldTouch, opts.OnVisit
	vm, as := h.VM, h.AS
	scratch := h.Scratch()
	q := scratch.Queue[:0]
	for _, id := range seeds {
		o := &hot[id]
		if uint32(o.MarkSize) >= gen {
			continue // nil, dead or already marked
		}
		o.MarkSize = o.MarkSize&hi32 | gen64
		q = append(q, id)
	}

	var st TraceStats
	// DFS pops the newest entry and reports depth -1; BFS advances head
	// through the FIFO and counts levels at their boundaries (levelEnd is
	// where the next level starts), so entries carry only an ID.
	depth, head, levelEnd := -1, 0, len(q)
	if bfs {
		depth = 0
	}
	for {
		var id heap.ObjectID
		if bfs {
			if head == len(q) {
				break
			}
			if head == levelEnd {
				depth++
				levelEnd = len(q)
			}
			id = q[head]
			head++
		} else {
			n := len(q)
			if n == 0 {
				break
			}
			id = q[n-1]
			q = q[:n-1]
		}
		size := int32(hot[uint32(id)].MarkSize >> 32)
		st.ObjectsTraced++
		st.BytesTraced += int64(size)
		st.CPU += visitCost(size)
		if shouldTouch == nil || shouldTouch(id) {
			// The record is indexed again rather than kept live across the
			// ShouldTouch call, which would spill it on every visit.
			o := &hot[uint32(id)]
			s, err := vm.TouchRange(as, o.Addr, int64(o.MarkSize>>32), false)
			st.FaultStall += s
			if err != nil && st.Err == nil {
				st.Err = err
			}
		}
		if onVisit != nil {
			onVisit(id, depth)
		}
		s := hot[uint32(id)].Span
		off := s >> 32
		for _, ref := range edges[off : off+(s&0xffffffff)] {
			w := hot[uint32(ref)].MarkSize
			if uint32(w) >= gen {
				continue // nil, dead or already marked
			}
			// Marked either way: a reference ShouldTrace rejects is live
			// by fiat, so evacuation sees it, but is never touched or
			// descended into.
			descend := shouldTrace == nil || shouldTrace(ref)
			hot[uint32(ref)].MarkSize = w&hi32 | gen64
			if descend {
				q = append(q, ref)
			}
		}
	}
	if bfs {
		st.MaxDepth = depth
	}
	scratch.Queue = q[:0] // return the (possibly grown) buffer
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
		if h.Live(id) && depths[id] == Unreachable {
			depths[id] = 0
			queue = append(queue, id)
		}
	}
	for head := 0; head < len(queue); head++ {
		id := queue[head]
		d := depths[id]
		for _, ref := range h.Refs(id) {
			if !h.Live(ref) {
				continue
			}
			if depths[ref] == Unreachable {
				depths[ref] = d + 1
				queue = append(queue, ref)
			}
		}
	}
	scratch.Queue = queue[:0]
	scratch.Depths = depths
	return DepthTable(depths)
}
