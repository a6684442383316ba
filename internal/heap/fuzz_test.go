package heap

import (
	"slices"
	"testing"
	"time"

	"fleetsim/internal/mem"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
	"fleetsim/internal/xrand"
)

// heapInvariants checks the heap's structural invariants:
//  1. stats.LiveObjects/LiveBytes match a full table walk;
//  2. every live object's region contains it (an entry with matching
//     Region id exists in r.Objects) and its address lies inside the
//     region;
//  3. non-stale region object lists are sorted by address and
//     non-overlapping;
//  4. Used never exceeds RegionSize.
func heapInvariants(t *testing.T, h *Heap) {
	t.Helper()
	var liveN, liveB int64
	for id := ObjectID(1); int(id) < h.ObjectTableSize(); id++ {
		o := h.Object(id)
		if !o.Live() {
			continue
		}
		liveN++
		liveB += int64(o.Size)
		r := h.RegionByID(o.Region)
		if r.Free() {
			t.Fatalf("live object %d in free region %d", id, o.Region)
		}
		if o.Addr < r.Base || o.Addr+int64(o.Size) > r.Base+units.RegionSize {
			t.Fatalf("object %d outside its region: addr %d region base %d", id, o.Addr, r.Base)
		}
		found := false
		for _, e := range r.Objects {
			if e == id {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("object %d missing from region %d list", id, o.Region)
		}
	}
	if liveN != h.LiveObjects() || liveB != h.LiveBytes() {
		t.Fatalf("stats drift: walk (%d,%d) vs stats (%d,%d)", liveN, liveB, h.LiveObjects(), h.LiveBytes())
	}
	h.Regions(func(r *Region) {
		if r.Used > units.RegionSize {
			t.Fatalf("region %d over-full: %d", r.ID, r.Used)
		}
		prevEnd := int64(-1)
		for _, id := range r.Objects {
			o := h.Object(id)
			if !o.Live() || o.Region != r.ID {
				continue // stale entry, skipped by collectors too
			}
			if o.Addr < prevEnd {
				t.Fatalf("region %d objects overlap/unsorted at %d", r.ID, id)
			}
			prevEnd = o.Addr + int64(o.Size)
		}
	})
}

// TestHeapRandomOps drives a random mix of allocations, reference edits,
// accesses, chain drops and collections, asserting invariants throughout.
// Each seed also runs with Grow called up front and mid-run, and on a heap
// that first adopts the stale tables of a heap that ran another seed; each
// must end in exactly the plain run's state: reserved capacity and adopted
// memory are unobservable.
func TestHeapRandomOps(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		want := runRandomOps(t, seed, -1, Tables{})
		sameHeap(t, want, runRandomOps(t, seed, 0, Tables{}))
		sameHeap(t, want, runRandomOps(t, seed, 1500, Tables{}))
		spare := staleTables(runRandomOps(t, seed+5, -1, Tables{}))
		sameHeap(t, want, runRandomOps(t, seed, -1, spare))
	}
}

// staleTables fills a heap's object table past any length the random
// workloads reach (they create at most a few thousand ObjectIDs) and
// retires it, so a heap that adopts the result finds stale records,
// spans and arena slots beyond every length it uses.
func staleTables(h *Heap) Tables {
	for i := 0; i < growOps; i++ {
		h.Alloc(16, EpochForeground, 0)
	}
	return h.Retire()
}

// growOps is how much a grown run reserves at its growth step. It covers
// every object either workload creates, but the edge cross-check's arena
// outgrows it, so those runs also grow past their reservation.
const growOps = 4096

// runRandomOps runs TestHeapRandomOps' workload for one seed on a heap
// that first adopts spare, calling Grow(growOps, growOps) before step
// growAt (never when growAt < 0), and returns the heap.
func runRandomOps(t *testing.T, seed uint64, growAt int, spare Tables) *Heap {
	r := xrand.New(seed)
	phys := mem.NewPhysical(128 * units.MiB)
	vm := vmem.NewManager(phys, vmem.NewSwapDevice(vmem.DefaultSwapConfig()))
	h := New(mem.NewAddressSpace("fuzz"), vm)
	h.Adopt(spare)
	if growAt == 0 {
		h.Grow(growOps, growOps)
	}

	root, _, _ := h.Alloc(64, EpochForeground, 0)
	h.AddRoot(root)
	live := []ObjectID{root}

	now := time.Duration(0)
	for step := 0; step < 3000; step++ {
		if step > 0 && step == growAt {
			h.Grow(growOps, growOps)
		}
		now += time.Millisecond
		switch op := r.Intn(10); {
		case op < 5: // allocate, usually attached
			id, _, _ := h.Alloc(int32(16+r.Intn(2000)), Epoch(r.Intn(2)), now)
			if r.Bool(0.8) {
				h.AddRef(live[r.Intn(len(live))], id, now)
				live = append(live, id)
			}
		case op < 7: // access something
			id := live[r.Intn(len(live))]
			if h.Object(id).Live() {
				h.Access(id, r.Bool(0.3), now)
			}
		case op == 7: // rewire a reference
			from := live[r.Intn(len(live))]
			to := live[r.Intn(len(live))]
			if h.Object(from).Live() && h.Object(to).Live() {
				h.SetRef(from, r.Intn(4), to, now)
			}
		case op == 8: // cut refs (make garbage)
			id := live[r.Intn(len(live))]
			if h.Object(id).Live() && id != root {
				h.ClearRefs(id, now)
			}
		case op == 9 && step%100 == 99: // collect via the test-local GC
			collectForFuzz(h, now)
			// Compact the tracking list to objects still live.
			kept := live[:0]
			for _, id := range live {
				if h.Object(id).Live() {
					kept = append(kept, id)
				}
			}
			live = kept
			if len(live) == 0 {
				live = []ObjectID{root}
			}
		}
		placementInvariant(t, h, step)
		if step%500 == 499 {
			heapInvariants(t, h)
		}
	}
	heapInvariants(t, h)
	return h
}

// sameHeap fails the test unless got holds exactly want's state: every
// hot and cold record, every slot's edge capacity and Refs view, the edge
// arena itself, the root list, the mark generation and Stats. Capacity is
// the only thing allowed to differ, and got's tables must read zero past
// their lengths, as fresh memory does.
func sameHeap(t *testing.T, want, got *Heap) {
	t.Helper()
	zeroTail(t, "hot", got.hot)
	zeroTail(t, "cold", got.cold)
	zeroTail(t, "ecap", got.ecap)
	zeroTail(t, "edges", got.edges)
	if !slices.Equal(want.hot, got.hot) || want.markGen != got.markGen {
		t.Fatal("hot records differ")
	}
	if !slices.Equal(want.cold, got.cold) {
		t.Fatal("cold records differ")
	}
	for id := range want.hot {
		if !slices.Equal(want.Refs(ObjectID(id)), got.Refs(ObjectID(id))) {
			t.Fatalf("Refs(%d) differ: %v vs %v", id, want.Refs(ObjectID(id)), got.Refs(ObjectID(id)))
		}
	}
	if !slices.Equal(want.ecap, got.ecap) || !slices.Equal(want.edges, got.edges) ||
		want.edgeWaste != got.edgeWaste {
		t.Fatal("edge arenas differ")
	}
	if !slices.Equal(want.Roots(), got.Roots()) {
		t.Fatalf("roots differ: %v vs %v", want.Roots(), got.Roots())
	}
	if want.Stats() != got.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", want.Stats(), got.Stats())
	}
}

// zeroTail fails the test unless every entry of s between its length and
// its capacity is zero: growTables and extendArena expose those entries
// without writing them.
func zeroTail[E comparable](t *testing.T, table string, s []E) {
	t.Helper()
	var zero E
	for i, e := range s[len(s):cap(s)] {
		if e != zero {
			t.Fatalf("%s[%d], past length %d, holds %v", table, len(s)+i, len(s), e)
		}
	}
}

// placementInvariant checks what deriving an object's region from its
// address relies on: every live object's region, RegionOf(id), is in
// use, contains the object's whole range [Addr, Addr+Size) within its
// used span and its RegionSize bytes, and names id in its Objects list.
func placementInvariant(t *testing.T, h *Heap, step int) {
	t.Helper()
	listed := make([]bool, h.ObjectTableSize())
	h.Regions(func(r *Region) {
		for _, id := range r.Objects {
			if h.RegionOf(id) == r {
				listed[id] = true
			}
		}
	})
	for id := ObjectID(1); int(id) < h.ObjectTableSize(); id++ {
		if !h.Live(id) {
			continue
		}
		r, addr, end := h.RegionOf(id), h.Addr(id), h.Addr(id)+int64(h.Size(id))
		if r.Free() || addr < r.Base || end > r.Base+min(r.Used, units.RegionSize) {
			t.Fatalf("step %d: object %d spans [%d,%d), outside region %d's used span [%d,%d) (free %v)",
				step, id, addr, end, r.ID, r.Base, r.Base+r.Used, r.Free())
		}
		if !listed[id] {
			t.Fatalf("step %d: region %d does not list object %d", step, r.ID, id)
		}
	}
}

// collectForFuzz is a minimal exact mark-evacuate cycle (the gc package is
// not importable here without a cycle, so the fuzz test carries its own
// reference collector — which doubles as an independent check of the heap
// API's sufficiency).
func collectForFuzz(h *Heap, now time.Duration) {
	h.BeginTrace()
	var stack []ObjectID
	for _, id := range h.Roots() {
		if h.Object(id).Live() && h.Mark(id) {
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ref := range h.Refs(id) {
			if ref != NilObject && h.Object(ref).Live() && h.Mark(ref) {
				stack = append(stack, ref)
			}
		}
	}
	var from []*Region
	h.Regions(func(r *Region) { from = append(from, r) })
	ev := h.NewEvacuator()
	for _, r := range from {
		for _, id := range r.Objects {
			o := h.Object(id)
			if !o.Live() || o.Region != r.ID {
				continue
			}
			if h.Marked(id) {
				ev.Copy(id, KindNormal)
			} else {
				h.KillObject(id)
			}
		}
	}
	ev.Finish()
	for _, r := range from {
		h.FreeRegion(r)
	}
	h.NoteGCComplete()
	_ = now
}

// TestEdgeArenaCrossCheck drives a reference-heavy random workload against
// the heap while mirroring every edge mutation into a naive map-of-slices
// model, then compares each live object's Refs view against the model. It
// exercises exactly what the CSR arena must get right: append growth
// (in-place and relocating), set-with-gap-fill, clears, span reuse by the
// recycled ObjectID's next tenant, compaction, and views read after the
// arena's backing array moves. Like TestHeapRandomOps, each seed also runs
// grown and on adopted stale tables.
func TestEdgeArenaCrossCheck(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		want := runEdgeCrossCheck(t, seed, -1, Tables{})
		sameHeap(t, want, runEdgeCrossCheck(t, seed, 0, Tables{}))
		sameHeap(t, want, runEdgeCrossCheck(t, seed, 2000, Tables{}))
		spare := staleTables(runEdgeCrossCheck(t, seed+3, -1, Tables{}))
		sameHeap(t, want, runEdgeCrossCheck(t, seed, -1, spare))
	}
}

// runEdgeCrossCheck runs TestEdgeArenaCrossCheck's workload for one seed
// on a heap that first adopts spare, calling Grow(growOps, growOps) before
// step growAt (never when growAt < 0), and returns the heap.
func runEdgeCrossCheck(t *testing.T, seed uint64, growAt int, spare Tables) *Heap {
	r := xrand.New(seed)
	phys := mem.NewPhysical(128 * units.MiB)
	vm := vmem.NewManager(phys, vmem.NewSwapDevice(vmem.DefaultSwapConfig()))
	h := New(mem.NewAddressSpace("edges"), vm)
	h.Adopt(spare)
	if growAt == 0 {
		h.Grow(growOps, growOps)
	}

	model := map[ObjectID][]ObjectID{}
	root, _, _ := h.Alloc(64, EpochForeground, 0)
	h.AddRoot(root)
	model[root] = nil
	live := []ObjectID{root}

	verify := func(step int) {
		t.Helper()
		for _, id := range live {
			if !h.Object(id).Live() {
				continue
			}
			got := h.Refs(id)
			want := model[id]
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d obj %d: %d refs, model has %d",
					seed, step, id, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d obj %d ref %d: got %d want %d",
						seed, step, id, i, got[i], want[i])
				}
			}
		}
	}

	now := time.Duration(0)
	for step := 0; step < 4000; step++ {
		if step > 0 && step == growAt {
			h.Grow(growOps, growOps)
		}
		now += time.Millisecond
		switch op := r.Intn(12); {
		case op < 3: // allocate, usually attached (fresh tenant: empty span)
			id, _, _ := h.Alloc(int32(16+r.Intn(256)), Epoch(r.Intn(2)), now)
			model[id] = nil
			if r.Bool(0.8) {
				from := live[r.Intn(len(live))]
				h.AddRef(from, id, now)
				model[from] = append(model[from], id)
			}
			live = append(live, id)
		case op < 8: // append an edge (drives span growth + relocation)
			from := live[r.Intn(len(live))]
			to := live[r.Intn(len(live))]
			if h.Object(from).Live() && h.Object(to).Live() {
				h.AddRef(from, to, now)
				model[from] = append(model[from], to)
			}
		case op < 10: // set a slot, gap-filling with NilObject
			from := live[r.Intn(len(live))]
			to := live[r.Intn(len(live))]
			if h.Object(from).Live() && h.Object(to).Live() {
				i := r.Intn(7)
				h.SetRef(from, i, to, now)
				for len(model[from]) <= i {
					model[from] = append(model[from], NilObject)
				}
				model[from][i] = to
			}
		case op == 10: // clear (span keeps capacity for reuse)
			from := live[r.Intn(len(live))]
			if h.Object(from).Live() && from != root {
				h.ClearRefs(from, now)
				model[from] = nil
			}
		case op == 11 && step%150 == 149: // collect: kills + ID recycling
			collectForFuzz(h, now)
			kept := live[:0]
			for _, id := range live {
				if h.Object(id).Live() {
					kept = append(kept, id)
				} else {
					delete(model, id)
				}
			}
			live = kept
			if len(live) == 0 {
				live = []ObjectID{root}
			}
		}
		if step%200 == 199 {
			verify(step)
		}
	}
	verify(-1)
	heapInvariants(t, h)
	return h
}
