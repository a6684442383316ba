package gc

import (
	"testing"

	"fleetsim/internal/heap"
	"fleetsim/internal/mem"
	"fleetsim/internal/vmem"
)

// benchHeap builds a heap with a root fan-out plus linked chains — the
// shape a tracing pass walks on every GC cycle. ~nRoots roots, each the
// head of a chain of chainLen objects with occasional cross links.
func benchHeap(nRoots, chainLen int) *heap.Heap {
	phys := mem.NewPhysical(1 << 30)
	vm := vmem.NewManager(phys, vmem.NewSwapDevice(vmem.DefaultSwapConfig()))
	h := heap.New(mem.NewAddressSpace("bench"), vm)

	var prev heap.ObjectID
	for r := 0; r < nRoots; r++ {
		head, _, _ := h.Alloc(64, heap.EpochForeground, 0)
		h.AddRoot(head)
		cur := head
		for i := 0; i < chainLen; i++ {
			next, _, _ := h.Alloc(96, heap.EpochForeground, 0)
			h.AddRef(cur, next, 0)
			if prev != heap.NilObject && i%7 == 0 {
				h.AddRef(next, prev, 0) // cross link to an older chain
			}
			prev = cur
			cur = next
		}
	}
	return h
}

// neverTouch is Marvin's ShouldTouch when every object is bookmarked: the
// trace walks stubs and touches no page.
func neverTouch(heap.ObjectID) bool { return false }

// BenchmarkTraceHotPath measures one full mark pass over a ~50k-object
// graph with no page touched, isolating the mark/visit/queue machinery
// (the paper's §3.2 GC hot path). Run with -benchmem: the allocs/op of
// this benchmark are the per-cycle allocation cost of the tracing engine.
func BenchmarkTraceHotPath(b *testing.B) {
	h := benchHeap(64, 800) // ~51k objects
	b.ReportAllocs()
	b.ResetTimer()
	var traced int64
	for i := 0; i < b.N; i++ {
		h.BeginTrace()
		st := Trace(h, h.RootSlice(), TraceOpts{ShouldTouch: neverTouch})
		traced = st.ObjectsTraced
	}
	b.ReportMetric(float64(traced), "objects/trace")
}

// BenchmarkTraceHotPathBFS is the breadth-first variant (RGS's grouping
// order, §5.3.1) with depth tracking enabled.
func BenchmarkTraceHotPathBFS(b *testing.B) {
	h := benchHeap(64, 800)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.BeginTrace()
		Trace(h, h.RootSlice(), TraceOpts{BFS: true, ShouldTouch: neverTouch})
	}
}

// BenchmarkTraceTouchPass measures the pass Marvin's bookmarking GC
// runs: the same graph, mapped through vmem, traced depth-first with
// ShouldTouch set the way Marvin sets it. Every fourth object is
// bookmarked (its stub is consulted, no page touched); the other visits
// touch their objects' resident pages.
func BenchmarkTraceTouchPass(b *testing.B) {
	h := benchHeap(64, 800)
	bookmarked := make([]bool, h.ObjectTableSize())
	for id := range bookmarked {
		bookmarked[id] = id%4 == 0
	}
	shouldTouch := func(id heap.ObjectID) bool { return !bookmarked[id] }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.BeginTrace()
		Trace(h, h.RootSlice(), TraceOpts{ShouldTouch: shouldTouch})
	}
}
