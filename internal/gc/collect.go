package gc

import (
	"time"

	"fleetsim/internal/cardtable"
	"fleetsim/internal/heap"
)

// Kind identifies a collector for result reporting.
type Kind string

// Collector kinds.
const (
	KindMinor    Kind = "minor"
	KindMajor    Kind = "major"
	KindBGC      Kind = "bgc"
	KindGrouping Kind = "grouping"
	KindBookmark Kind = "bookmark"
)

// Result summarises one GC cycle.
type Result struct {
	Kind Kind

	ObjectsTraced int64 // the GC working set (Fig. 12)
	BytesTraced   int64
	ObjectsFreed  int64
	BytesFreed    int64
	ObjectsCopied int64
	BytesCopied   int64
	RegionsFreed  int

	// PauseSTW is mutator-visible stop-the-world time.
	PauseSTW time.Duration
	// GCThreadCPU is compute time on the GC thread (concurrent with
	// mutators).
	GCThreadCPU time.Duration
	// GCFaultStall is swap-in IO the GC thread waited on; under memory
	// pressure this is what offsets swapping (§3.2 issue 1).
	GCFaultStall time.Duration

	// Err is the first vmem error the cycle hit (ErrOOM under extreme
	// pressure). The collection still completes structurally — marking and
	// accounting stay consistent — so the caller can react (lmkd, kill)
	// without the heap being left half-collected.
	Err error
}

// Add accumulates another result into r (for aggregate stats).
func (r *Result) Add(o Result) {
	r.ObjectsTraced += o.ObjectsTraced
	r.BytesTraced += o.BytesTraced
	r.ObjectsFreed += o.ObjectsFreed
	r.BytesFreed += o.BytesFreed
	r.ObjectsCopied += o.ObjectsCopied
	r.BytesCopied += o.BytesCopied
	r.RegionsFreed += o.RegionsFreed
	r.PauseSTW += o.PauseSTW
	r.GCThreadCPU += o.GCThreadCPU
	r.GCFaultStall += o.GCFaultStall
	if r.Err == nil {
		r.Err = o.Err
	}
}

// NoteErr latches the first error of the cycle into r.
func (r *Result) NoteErr(err error) {
	if err != nil && r.Err == nil {
		r.Err = err
	}
}

// AddTrace folds one tracing pass into r: its working set, GC-thread CPU
// and fault stall, and its first error.
func (r *Result) AddTrace(st TraceStats) {
	r.ObjectsTraced += st.ObjectsTraced
	r.BytesTraced += st.BytesTraced
	r.GCThreadCPU += st.CPU
	r.GCFaultStall += st.FaultStall
	r.NoteErr(st.Err)
}

// RememberedSet is the always-on card-table remembered set ART keeps for
// old→young references; minor GC scans it instead of the whole old
// generation.
type RememberedSet struct {
	h     *heap.Heap
	table *cardtable.Table
}

// NewRememberedSet attaches a remembered set to h. The caller composes
// Barrier into the heap's write-barrier chain.
func NewRememberedSet(h *heap.Heap) *RememberedSet {
	return &RememberedSet{h: h, table: cardtable.New(h.HeapBytes())}
}

// Table exposes the underlying card table (sizing stats).
func (rs *RememberedSet) Table() *cardtable.Table { return rs.table }

// Barrier is the write-barrier hook: writes to objects in old regions dirty
// their card.
func (rs *RememberedSet) Barrier(id heap.ObjectID) {
	addr := rs.h.Addr(id)
	if !rs.h.RegionAt(addr).NewlyAllocated {
		rs.table.MarkDirty(addr)
	}
}

// appendCardSeeds scans dirty cards, touching the old objects that live on
// them and appending their young references to seeds as extra trace
// seeds. Costs are charged into res.
func (rs *RememberedSet) appendCardSeeds(seeds []heap.ObjectID, res *Result) []heap.ObjectID {
	h := rs.h
	rs.table.ScanDirty(true, func(start, size int64) {
		res.GCThreadCPU += CardScanCPU
		if start >= h.AddressSpanBytes() {
			return
		}
		r := h.RegionAt(start)
		if r.Free() {
			return
		}
		h.ForEachObjectOverlapping(r, start, size, func(id heap.ObjectID) {
			size := h.Size(id)
			res.ObjectsTraced++
			res.BytesTraced += int64(size)
			res.GCThreadCPU += visitCost(size)
			stall, terr := h.VM.TouchRange(h.AS, h.Addr(id), int64(size), false)
			res.GCFaultStall += stall
			res.NoteErr(terr)
			for _, ref := range h.Refs(id) {
				if h.Live(ref) && h.RegionOf(ref).NewlyAllocated {
					seeds = append(seeds, ref)
				}
			}
		})
	})
	return seeds
}

// Minor runs ART's young-generation concurrent-copying collection: the
// collection set is every newly-allocated region; liveness comes from the
// roots plus the remembered set.
func Minor(h *heap.Heap, rs *RememberedSet) Result {
	res := Result{Kind: KindMinor}

	var young []*heap.Region
	h.Regions(func(r *heap.Region) {
		if r.NewlyAllocated {
			young = append(young, r)
		}
	})
	if len(young) == 0 {
		h.NoteGCComplete()
		return res
	}

	seeds := SeedBuf(h)
	res.PauseSTW += FlipPause + time.Duration(len(seeds))*RootScanCPU
	if rs != nil {
		seeds = rs.appendCardSeeds(seeds, &res)
	}

	h.BeginTrace()
	res.AddTrace(Trace(h, seeds, TraceOpts{
		ShouldTrace: func(id heap.ObjectID) bool { return h.RegionOf(id).NewlyAllocated },
	}))
	SaveSeeds(h, seeds)

	Evacuate(h, h.NewEvacuator(), &res, young, nil)
	res.PauseSTW += FinalPause
	h.NoteGCComplete()
	return res
}

// fullEvery is ART's in-use compaction cadence: every fullEvery-th
// collection of a foreground heap is a full one.
const fullEvery = 8

// Foreground runs the n-th (1-based) collection of an in-use heap: a young
// collection, except that every fullEvery-th one is a full compaction. The
// caller keeps the count.
func Foreground(h *heap.Heap, rs *RememberedSet, n int) Result {
	if n%fullEvery == 0 {
		return Major(h, rs)
	}
	return Minor(h, rs)
}

// EvacuateLiveRatio is the region live-ratio below which a major
// collection evacuates a region; denser regions are collected in place,
// as in ART's region-space policy. This matters for swap interaction: the
// GC *traces* (and therefore faults in) every live object regardless, but
// only sparse regions get rewritten to fresh pages.
const EvacuateLiveRatio = 0.75

// Major runs ART's full-heap concurrent-copying collection: it traces every
// reachable object — touching all their pages, which is the GC↔swap
// conflict of §3.2 — then evacuates sparse regions and collects dense ones
// in place.
func Major(h *heap.Heap, rs *RememberedSet) Result {
	res := Result{Kind: KindMajor}
	seeds := h.Roots()
	res.PauseSTW += FlipPause + time.Duration(len(seeds))*RootScanCPU

	h.BeginTrace()
	res.AddTrace(Trace(h, seeds, TraceOpts{}))

	var sparse, dense []*heap.Region
	h.Regions(func(r *heap.Region) {
		if r.Used == 0 {
			sparse = append(sparse, r)
			return
		}
		var live int64
		for _, id := range r.Objects {
			if h.Live(id) && h.RegionOf(id) == r && h.Marked(id) {
				live += int64(h.Size(id))
			}
		}
		if float64(live)/float64(r.Used) < EvacuateLiveRatio {
			sparse = append(sparse, r)
		} else {
			dense = append(dense, r)
		}
	})
	Evacuate(h, h.NewEvacuator(), &res, sparse, nil)
	for _, r := range dense {
		collectInPlace(h, &res, r)
	}

	if rs != nil {
		rs.Table().Clear() // remembered refs were all re-derived by the full trace
	}
	res.PauseSTW += FinalPause
	h.NoteGCComplete()
	return res
}

// collectInPlace kills a dense region's unmarked objects without moving
// the survivors, rebuilding the region's object list. The dead objects'
// space is internal fragmentation until the region's live ratio drops
// below the evacuation threshold at a later cycle.
func collectInPlace(h *heap.Heap, res *Result, r *heap.Region) {
	kept := r.Objects[:0]
	for _, id := range r.Objects {
		if !h.Live(id) || h.RegionOf(id) != r {
			continue
		}
		if h.Marked(id) {
			kept = append(kept, id)
			continue
		}
		res.ObjectsFreed++
		res.BytesFreed += int64(h.Size(id))
		h.KillObject(id)
	}
	r.Objects = kept
}

// Evacuate is the copying collectors' shared evacuation loop: it copies the
// marked objects of the from-regions through ev into to-regions of the kind
// kindOf chooses (nil means KindNormal), kills the unmarked ones, applies
// the batched destination touches, and frees the from-regions. Only the
// stall of this call's Finish is charged to res, so a caller may keep
// copying through ev afterwards and charge its own Finish the same way.
func Evacuate(h *heap.Heap, ev *heap.Evacuator, res *Result, from []*heap.Region, kindOf func(heap.ObjectID) heap.RegionKind) {
	for _, r := range from {
		for _, id := range r.Objects {
			if !h.Live(id) || h.RegionOf(id) != r {
				continue // stale entry (already moved this cycle)
			}
			size := h.Size(id)
			if !h.Marked(id) {
				res.ObjectsFreed++
				res.BytesFreed += int64(size)
				h.KillObject(id)
				continue
			}
			kind := heap.KindNormal
			if kindOf != nil {
				kind = kindOf(id)
			}
			ev.Copy(id, kind)
			res.ObjectsCopied++
			res.BytesCopied += int64(size)
			res.GCThreadCPU += CopyCost(size)
		}
	}
	before := ev.Stall
	ev.Finish()
	res.GCFaultStall += ev.Stall - before
	res.NoteErr(ev.Err)
	for _, r := range from {
		h.FreeRegion(r)
		res.RegionsFreed++
	}
}
