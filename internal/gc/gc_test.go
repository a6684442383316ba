package gc

import (
	"testing"
	"testing/quick"

	"fleetsim/internal/heap"
	"fleetsim/internal/mem"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
	"fleetsim/internal/xrand"
)

func newTestHeap() *heap.Heap {
	phys := mem.NewPhysical(256 * units.MiB)
	swap := vmem.NewSwapDevice(vmem.DefaultSwapConfig())
	vm := vmem.NewManager(phys, swap)
	return heap.New(mem.NewAddressSpace("gc-test"), vm)
}

// buildGraph makes root -> a -> b, plus garbage g (unreachable).
func buildGraph(h *heap.Heap) (root, a, b, g heap.ObjectID) {
	root, _, _ = h.Alloc(64, heap.EpochForeground, 0)
	a, _, _ = h.Alloc(64, heap.EpochForeground, 0)
	b, _, _ = h.Alloc(64, heap.EpochForeground, 0)
	g, _, _ = h.Alloc(64, heap.EpochForeground, 0)
	h.AddRoot(root)
	h.AddRef(root, a, 0)
	h.AddRef(a, b, 0)
	return
}

func TestTraceReachability(t *testing.T) {
	h := newTestHeap()
	root, a, b, g := buildGraph(h)
	h.BeginTrace()
	st := Trace(h, h.RootSlice(), TraceOpts{})
	if st.ObjectsTraced != 3 {
		t.Errorf("traced %d, want 3", st.ObjectsTraced)
	}
	for _, id := range []heap.ObjectID{root, a, b} {
		if !h.Marked(id) {
			t.Errorf("live object %d unmarked", id)
		}
	}
	if h.Marked(g) {
		t.Error("garbage marked")
	}
	if st.CPU <= 0 {
		t.Error("trace should cost CPU")
	}
}

func TestTraceBFSDepths(t *testing.T) {
	h := newTestHeap()
	root, a, b, _ := buildGraph(h)
	depths := map[heap.ObjectID]int{}
	h.BeginTrace()
	Trace(h, h.RootSlice(), TraceOpts{BFS: true, OnVisit: func(id heap.ObjectID, d int) { depths[id] = d }})
	if depths[root] != 0 || depths[a] != 1 || depths[b] != 2 {
		t.Errorf("depths = %v", depths)
	}
}

func TestTraceBFSShortestPath(t *testing.T) {
	// Diamond: root -> x -> y -> z and root -> z. BFS depth of z must be 1.
	h := newTestHeap()
	root, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	x, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	y, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	z, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	h.AddRoot(root)
	h.AddRef(root, x, 0)
	h.AddRef(x, y, 0)
	h.AddRef(y, z, 0)
	h.AddRef(root, z, 0)
	depths := map[heap.ObjectID]int{}
	h.BeginTrace()
	Trace(h, h.RootSlice(), TraceOpts{BFS: true, OnVisit: func(id heap.ObjectID, d int) { depths[id] = d }})
	if depths[z] != 1 {
		t.Errorf("BFS depth of z = %d, want 1 (shortest path)", depths[z])
	}
	if st := Depths(h); st[z] != 1 || st[y] != 2 {
		t.Errorf("Depths analysis = %v", st)
	}
}

func TestTraceShouldTraceBoundary(t *testing.T) {
	h := newTestHeap()
	_, a, b, _ := buildGraph(h)
	h.BeginTrace()
	st := Trace(h, h.RootSlice(), TraceOpts{
		ShouldTrace: func(id heap.ObjectID) bool { return id != a },
	})
	// Root visited; a marked live-by-fiat but not visited; b unreached.
	if st.ObjectsTraced != 1 {
		t.Errorf("traced %d, want 1", st.ObjectsTraced)
	}
	if !h.Marked(a) {
		t.Error("boundary object must still be marked live")
	}
	if h.Marked(b) {
		t.Error("object behind boundary must not be reached")
	}
}

func TestTraceCycles(t *testing.T) {
	h := newTestHeap()
	a, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	b, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	h.AddRoot(a)
	h.AddRef(a, b, 0)
	h.AddRef(b, a, 0) // cycle
	h.BeginTrace()
	st := Trace(h, h.RootSlice(), TraceOpts{})
	if st.ObjectsTraced != 2 {
		t.Errorf("cycle traced %d, want 2", st.ObjectsTraced)
	}
}

func TestMajorCollectsGarbage(t *testing.T) {
	h := newTestHeap()
	root, a, b, g := buildGraph(h)
	res := Major(h, nil)
	if res.ObjectsFreed != 1 {
		t.Errorf("freed %d, want 1", res.ObjectsFreed)
	}
	for _, id := range []heap.ObjectID{root, a, b} {
		if !h.Object(id).Live() {
			t.Errorf("live object %d killed", id)
		}
	}
	if h.Object(g).Live() {
		t.Error("garbage survived")
	}
	if h.GCCount() != 1 {
		t.Errorf("gc count = %d", h.GCCount())
	}
	if res.PauseSTW <= 0 || res.GCThreadCPU <= 0 {
		t.Error("GC must cost pause and CPU")
	}
}

func TestMajorPreservesRefsAcrossCompaction(t *testing.T) {
	h := newTestHeap()
	root, a, b, _ := buildGraph(h)
	Major(h, nil)
	// References are by ID, so the graph structure must be intact and
	// addresses must have changed (evacuation).
	if h.Refs(root)[0] != a || h.Refs(a)[0] != b {
		t.Error("reference graph corrupted by compaction")
	}
}

// TestForegroundCadence pins ART's in-use schedule: of 16 consecutive
// collections of a live foreground heap, the 8th and 16th are full
// compactions and the rest young-generation ones, and each frees the one
// garbage object allocated since the last.
func TestForegroundCadence(t *testing.T) {
	h := newTestHeap()
	rs := NewRememberedSet(h)
	h.WriteBarrier = rs.Barrier
	root, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	h.AddRoot(root)
	for n := 1; n <= 16; n++ {
		live, _, _ := h.Alloc(64, heap.EpochForeground, 0)
		h.AddRef(root, live, 0)
		h.Alloc(64, heap.EpochForeground, 0) // garbage
		want := KindMinor
		if n == 8 || n == 16 {
			want = KindMajor
		}
		res := Foreground(h, rs, n)
		if res.Kind != want || res.ObjectsFreed != 1 {
			t.Errorf("collection %d: kind %s freed %d, want %s freeing 1", n, res.Kind, res.ObjectsFreed, want)
		}
		if got := h.LiveObjects(); got != int64(n+1) {
			t.Errorf("collection %d: %d live objects, want %d", n, got, n+1)
		}
	}
}

func TestMinorOnlyCollectsYoung(t *testing.T) {
	h := newTestHeap()
	rs := NewRememberedSet(h)
	h.WriteBarrier = rs.Barrier

	// Old generation: root -> oldLive; oldGarbage unreachable.
	root, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	oldLive, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	oldGarbage, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	h.AddRoot(root)
	h.AddRef(root, oldLive, 0)
	h.NoteGCComplete() // ages the regions

	// Young generation: root -> youngLive; youngGarbage unreachable.
	youngLive, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	youngGarbage, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	h.AddRef(root, youngLive, 0)

	res := Minor(h, rs)
	if !h.Object(youngLive).Live() {
		t.Error("live young object collected")
	}
	if h.Object(youngGarbage).Live() {
		t.Error("young garbage survived minor GC")
	}
	if !h.Object(oldGarbage).Live() {
		t.Error("minor GC must not collect old garbage")
	}
	if res.Kind != KindMinor {
		t.Errorf("kind = %v", res.Kind)
	}
}

func TestMinorUsesRememberedSet(t *testing.T) {
	h := newTestHeap()
	rs := NewRememberedSet(h)
	h.WriteBarrier = rs.Barrier

	// Old object NOT reachable from roots after the epoch, holding the
	// only reference to a young object. Without the remembered set the
	// young object would be wrongly collected.
	root, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	oldHolder, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	h.AddRoot(root)
	h.AddRef(root, oldHolder, 0)
	h.NoteGCComplete()

	young, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	h.AddRef(oldHolder, young, 0) // dirties oldHolder's card

	// Drop the root->oldHolder path from the trace by removing the root:
	// the card table alone must keep young alive.
	h.RemoveRoot(root)

	if rs.Table().DirtyCards() == 0 {
		t.Fatal("write barrier did not dirty a card")
	}
	res := Minor(h, rs)
	if !h.Object(young).Live() {
		t.Error("young object reachable only via dirty card was collected")
	}
	if res.ObjectsTraced == 0 {
		t.Error("card scan should count traced objects")
	}
	if rs.Table().DirtyCards() != 0 {
		t.Error("cards must be cleared after the scan")
	}
}

func TestMinorEmptyYoungGeneration(t *testing.T) {
	h := newTestHeap()
	root, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	h.AddRoot(root)
	h.NoteGCComplete()
	res := Minor(h, nil)
	if res.ObjectsTraced != 0 || res.ObjectsFreed != 0 {
		t.Errorf("empty minor GC did work: %+v", res)
	}
}

func TestGCTouchesPagesCausingSwapIns(t *testing.T) {
	// The §3.2 conflict: build a heap, swap it out, then run a major GC —
	// the trace must fault pages back in.
	phys := mem.NewPhysical(8 * units.MiB)
	swap := vmem.NewSwapDevice(vmem.DefaultSwapConfig())
	vm := vmem.NewManager(phys, swap)
	h := heap.New(mem.NewAddressSpace("swapper"), vm)

	root, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	h.AddRoot(root)
	prev := root
	for i := 0; i < 2000; i++ {
		id, _, _ := h.Alloc(512, heap.EpochForeground, 0)
		h.AddRef(prev, id, 0)
		prev = id
	}
	// Swap the whole heap out.
	vm.AdviseCold(h.AS, 0, h.HeapBytes())
	if h.AS.SwappedPages() == 0 {
		t.Fatal("setup failed: nothing swapped")
	}
	swapInsBefore := vm.Stats().SwapIns
	res := Major(h, nil)
	if vm.Stats().SwapIns <= swapInsBefore {
		t.Error("GC trace did not fault swapped pages back in")
	}
	if res.GCFaultStall <= 0 {
		t.Error("GC fault stall not accounted")
	}
}

func TestControllerThreshold(t *testing.T) {
	c := NewController(2.0)
	c.Update(100 * units.MiB)
	if c.Threshold() != 200*units.MiB {
		t.Errorf("threshold = %d", c.Threshold())
	}
	if c.ShouldCollect(50 * units.MiB) {
		t.Error("should not collect below threshold")
	}
	if !c.ShouldCollect(101 * units.MiB) {
		t.Error("should collect past threshold")
	}
}

func TestControllerMinHeadroom(t *testing.T) {
	c := NewController(1.1)
	c.Update(1 * units.MiB) // 1.1x would leave only 0.1 MiB headroom
	if c.Threshold() < 1*units.MiB+c.MinHeadroom {
		t.Errorf("threshold %d below min headroom", c.Threshold())
	}
}

func TestResultAdd(t *testing.T) {
	a := Result{ObjectsTraced: 1, PauseSTW: 10}
	a.Add(Result{ObjectsTraced: 2, PauseSTW: 5, ObjectsFreed: 3})
	if a.ObjectsTraced != 3 || a.PauseSTW != 15 || a.ObjectsFreed != 3 {
		t.Errorf("Add = %+v", a)
	}
}

// Property: after a Major GC on a random object graph, exactly the objects
// reachable from the roots are alive.
func TestMajorLivenessMatchesReachability(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		h := newTestHeap()
		const n = 200
		ids := make([]heap.ObjectID, n)
		for i := range ids {
			ids[i], _, _ = h.Alloc(int32(16+r.Intn(512)), heap.EpochForeground, 0)
		}
		// Random edges.
		for i := 0; i < 3*n; i++ {
			h.AddRef(ids[r.Intn(n)], ids[r.Intn(n)], 0)
		}
		// A few roots.
		for i := 0; i < 5; i++ {
			h.AddRoot(ids[r.Intn(n)])
		}
		// Compute expected reachability independently.
		expected := make(map[heap.ObjectID]bool)
		var stack []heap.ObjectID
		for _, id := range h.Roots() {
			if !expected[id] {
				expected[id] = true
				stack = append(stack, id)
			}
		}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ref := range h.Refs(id) {
				if ref != heap.NilObject && !expected[ref] {
					expected[ref] = true
					stack = append(stack, ref)
				}
			}
		}
		Major(h, nil)
		for _, id := range ids {
			if h.Object(id).Live() != expected[id] {
				return false
			}
		}
		return int64(len(expected)) == h.LiveObjects()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestTraceMatchesReachability checks Trace against naive BFS
// reachability on random graphs with cycles, dead objects, nil reference
// slots and nil/dead/duplicate seeds. DFS and BFS must both mark exactly
// the reachable set, visit each reachable object once and report its
// object count, byte total and CPU; BFS must also hand OnVisit each
// object's shortest-path depth and report the deepest level, and DFS
// must report depth -1.
func TestTraceMatchesReachability(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := xrand.New(seed)
		h := newTestHeap()
		const n = 300
		ids := make([]heap.ObjectID, n)
		for i := range ids {
			size := int32(16 + r.Intn(512))
			if i%10 == 0 {
				size = int32(4096 + r.Intn(8192)) // past the visit-cost memo
			}
			ids[i], _, _ = h.Alloc(size, heap.EpochForeground, 0)
		}
		for i := 0; i < 2*n; i++ {
			h.AddRef(ids[r.Intn(n)], ids[r.Intn(n)], 0)
		}
		for i := 0; i < n/4; i++ {
			// Slot beyond the current length: the gap fills with nil.
			to := ids[r.Intn(n)]
			if r.Bool(0.3) {
				to = heap.NilObject
			}
			h.SetRef(ids[r.Intn(n)], 3+r.Intn(4), to, 0)
		}
		for i := 0; i < 5; i++ {
			h.AddRoot(ids[r.Intn(n)])
		}
		// Kill some objects while references to them remain, then recycle
		// a few of their IDs for fresh tenants with empty spans.
		var dead heap.ObjectID
		for i := 0; i < n/10; i++ {
			id := ids[r.Intn(n)]
			if !h.IsRoot(id) {
				h.KillObject(id)
				dead = id
			}
		}
		for i := 0; i < 5; i++ {
			id, _, _ := h.Alloc(int32(16+r.Intn(512)), heap.EpochBackground, 0)
			h.AddRef(ids[r.Intn(n)], id, 0)
		}
		seeds := append(h.RootSlice(), heap.NilObject, dead, h.Roots()[0])

		depth := map[heap.ObjectID]int{}
		var frontier []heap.ObjectID
		for _, id := range seeds {
			if _, seen := depth[id]; !seen && id != heap.NilObject && h.Object(id).Live() {
				depth[id] = 0
				frontier = append(frontier, id)
			}
		}
		for head := 0; head < len(frontier); head++ {
			id := frontier[head]
			for _, ref := range h.Refs(id) {
				if _, seen := depth[ref]; !seen && ref != heap.NilObject && h.Object(ref).Live() {
					depth[ref] = depth[id] + 1
					frontier = append(frontier, ref)
				}
			}
		}
		var want TraceStats
		for id, d := range depth {
			size := h.Object(id).Size
			want.ObjectsTraced++
			want.BytesTraced += int64(size)
			want.CPU += VisitCPU + vmem.DRAMCost(int64(size))
			want.MaxDepth = max(want.MaxDepth, d)
		}

		for _, bfs := range []bool{false, true} {
			h.BeginTrace()
			visited := map[heap.ObjectID]int{}
			st := Trace(h, seeds, TraceOpts{
				BFS:         bfs,
				ShouldTouch: neverTouch,
				OnVisit: func(id heap.ObjectID, d int) {
					if _, again := visited[id]; again {
						t.Fatalf("seed %d bfs=%v: object %d visited twice", seed, bfs, id)
					}
					visited[id] = d
				},
			})
			for id, d := range visited {
				wd := depth[id]
				if !bfs {
					wd = -1
				}
				if d != wd {
					t.Fatalf("seed %d bfs=%v: object %d visited at depth %d, want %d", seed, bfs, id, d, wd)
				}
			}
			if len(visited) != len(depth) {
				t.Fatalf("seed %d bfs=%v: visited %d objects, want %d", seed, bfs, len(visited), len(depth))
			}
			w := want
			if !bfs {
				w.MaxDepth = 0 // depth is tracked only breadth-first
			}
			if st != w {
				t.Fatalf("seed %d bfs=%v: stats %+v, want %+v", seed, bfs, st, w)
			}
			for id := heap.ObjectID(1); int(id) < h.ObjectTableSize(); id++ {
				if _, reachable := depth[id]; h.Marked(id) != reachable {
					t.Fatalf("seed %d bfs=%v: object %d marked=%v, reachable=%v",
						seed, bfs, id, h.Marked(id), reachable)
				}
			}
		}
	}
}

// Property: repeated Major GCs without mutation are idempotent on the live
// set and compact the heap (region count does not grow).
func TestMajorIdempotent(t *testing.T) {
	h := newTestHeap()
	r := xrand.New(7)
	var ids []heap.ObjectID
	for i := 0; i < 500; i++ {
		id, _, _ := h.Alloc(int32(16+r.Intn(256)), heap.EpochForeground, 0)
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		h.AddRef(ids[r.Intn(i)], ids[i], 0)
	}
	h.AddRoot(ids[0])
	Major(h, nil)
	live1 := h.LiveObjects()
	regions1 := h.RegionCount()
	res := Major(h, nil)
	if h.LiveObjects() != live1 {
		t.Errorf("second GC changed live set: %d -> %d", live1, h.LiveObjects())
	}
	if res.ObjectsFreed != 0 {
		t.Errorf("second GC freed %d", res.ObjectsFreed)
	}
	if h.RegionCount() > regions1 {
		t.Errorf("heap grew across idempotent GC: %d -> %d", regions1, h.RegionCount())
	}
}
