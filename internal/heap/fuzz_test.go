package heap

import (
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
func TestHeapRandomOps(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		r := xrand.New(seed)
		phys := mem.NewPhysical(128 * units.MiB)
		vm := vmem.NewManager(phys, vmem.NewSwapDevice(vmem.DefaultSwapConfig()))
		h := New(mem.NewAddressSpace("fuzz"), vm)

		root, _, _ := h.Alloc(64, EpochForeground, 0)
		h.AddRoot(root)
		live := []ObjectID{root}

		now := time.Duration(0)
		for step := 0; step < 3000; step++ {
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
			if step%500 == 499 {
				heapInvariants(t, h)
			}
		}
		heapInvariants(t, h)
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
		for _, ref := range h.Object(id).Refs {
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
// recycled ObjectID's next tenant, compaction, and view re-aliasing when
// the arena's backing array moves.
func TestEdgeArenaCrossCheck(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		runEdgeCrossCheck(t, seed)
	}
}

func runEdgeCrossCheck(t *testing.T, seed uint64) {
	r := xrand.New(seed)
	phys := mem.NewPhysical(128 * units.MiB)
	vm := vmem.NewManager(phys, vmem.NewSwapDevice(vmem.DefaultSwapConfig()))
	h := New(mem.NewAddressSpace("edges"), vm)

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
			got := h.Object(id).Refs
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
}
