package marvin

import (
	"errors"
	"testing"
	"time"

	"fleetsim/internal/gc"
	"fleetsim/internal/heap"
	"fleetsim/internal/mem"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
	"fleetsim/internal/xrand"
)

func newRig() (*heap.Heap, *vmem.Manager, *Marvin) {
	phys := mem.NewPhysical(256 * units.MiB)
	swap := vmem.NewSwapDevice(vmem.DefaultSwapConfig())
	vm := vmem.NewManager(phys, swap)
	h := heap.New(mem.NewAddressSpace("marvin-test"), vm)
	m := New(h, vm)
	// Wire the runtime hooks the android layer normally installs.
	h.ReadBarrier = m.NoteAccess
	return h, vm, m
}

// alloc allocates, pins (as the Marvin runtime does), and returns the id.
func alloc(h *heap.Heap, m *Marvin, size int32, now time.Duration) heap.ObjectID {
	id, _, _ := h.Alloc(size, heap.EpochForeground, now)
	m.PinAllocation(id)
	return id
}

func TestSwapOutRespectsThreshold(t *testing.T) {
	h, _, m := newRig()
	root := alloc(h, m, 64, 0)
	h.AddRoot(root)
	small := alloc(h, m, 512, 0)  // below 1024 threshold
	large := alloc(h, m, 2048, 0) // above
	h.AddRef(root, small, 0)
	h.AddRef(root, large, 0)

	n, bytes, _ := m.SwapOutCold(100*time.Second, units.GiB)
	if n != 1 || bytes != 2048 {
		t.Errorf("evicted %d objects / %d bytes, want 1 / 2048", n, bytes)
	}
	if !m.IsBookmarked(large) {
		t.Error("large object not bookmarked")
	}
	if m.IsBookmarked(small) {
		t.Error("small object must never be swapped")
	}
}

func TestSwapOutSkipsRecentlyUsed(t *testing.T) {
	h, _, m := newRig()
	root := alloc(h, m, 64, 0)
	h.AddRoot(root)
	hot := alloc(h, m, 2048, 0)
	cold := alloc(h, m, 2048, 0)
	h.AddRef(root, hot, 0)
	h.AddRef(root, cold, 0)
	now := 100 * time.Second
	h.Access(hot, false, now-time.Second) // recent

	m.SwapOutCold(now, units.GiB)
	if m.IsBookmarked(hot) {
		t.Error("recently used object evicted")
	}
	if !m.IsBookmarked(cold) {
		t.Error("cold object not evicted")
	}
}

func TestObjectLRUOrder(t *testing.T) {
	h, _, m := newRig()
	root := alloc(h, m, 64, 0)
	h.AddRoot(root)
	a := alloc(h, m, 2048, 0)
	b := alloc(h, m, 2048, 0)
	h.AddRef(root, a, 0)
	h.AddRef(root, b, 0)
	h.Access(a, false, 10*time.Second)
	h.Access(b, false, 20*time.Second)
	// Budget for exactly one object: the least recently used (a) goes.
	n, _, _ := m.SwapOutCold(100*time.Second, 2048)
	if n != 1 {
		t.Fatalf("evicted %d", n)
	}
	if !m.IsBookmarked(a) || m.IsBookmarked(b) {
		t.Error("object LRU picked the wrong victim")
	}
}

func TestSwapCompactByDefault(t *testing.T) {
	h, vm, m := newRig()
	root := alloc(h, m, 64, 0)
	h.AddRoot(root)
	for i := 0; i < 8; i++ {
		id := alloc(h, m, 2048, 0)
		h.AddRef(root, id, 0)
	}
	before := vm.Stats().SwapOuts
	m.SwapOutCold(100*time.Second, units.GiB)
	writes := vm.Stats().SwapOuts - before
	// Compact batching: 8 × 2048 B = 4 pages of data ≈ 4-5 page writes.
	if writes > 5 {
		t.Errorf("swap wrote %d pages for 16 KiB of objects, want ~4 (compacted)", writes)
	}
	// Faulting one object back still costs a whole page of IO — the
	// per-access amplification the paper describes.
	st := vm.Stats()
	stallBefore := st.FaultStall
	var victim heap.ObjectID
	for id := heap.ObjectID(1); int(id) < h.ObjectTableSize(); id++ {
		if h.Object(id).Live() && m.IsBookmarked(id) {
			victim = id
			break
		}
	}
	if victim == heap.NilObject {
		t.Fatal("no bookmarked object")
	}
	h.Access(victim, false, 101*time.Second)
	perPage := vmem.UFSFlashProfile().ReadTime(units.PageSize)
	if got := vm.Stats().FaultStall - stallBefore; got < perPage {
		t.Errorf("object fault stall %v < one page %v", got, perPage)
	}
}

func TestBookmarkGCDoesNotTouchSwapped(t *testing.T) {
	h, vm, m := newRig()
	root := alloc(h, m, 64, 0)
	h.AddRoot(root)
	prev := root
	for i := 0; i < 100; i++ {
		id := alloc(h, m, 2048, 0)
		h.AddRef(prev, id, 0)
		prev = id
	}
	m.SwapOutCold(100*time.Second, units.GiB)
	if m.BookmarkedObjects() == 0 {
		t.Fatal("setup: nothing bookmarked")
	}
	swapInsBefore := vm.Stats().SwapIns
	res := m.RunGC()
	if vm.Stats().SwapIns != swapInsBefore {
		t.Errorf("bookmark GC faulted %d swapped objects", vm.Stats().SwapIns-swapInsBefore)
	}
	// But it still traced them (via stubs).
	if res.ObjectsTraced < 100 {
		t.Errorf("traced %d, want full graph via stubs", res.ObjectsTraced)
	}
}

func TestBookmarkGCConsistencySTWScalesWithStubs(t *testing.T) {
	h, _, m := newRig()
	root := alloc(h, m, 64, 0)
	h.AddRoot(root)
	for i := 0; i < 50; i++ {
		id := alloc(h, m, 2048, 0)
		h.AddRef(root, id, 0)
	}
	resNoStubs := m.RunGC()
	m.SwapOutCold(100*time.Second, units.GiB)
	n := m.BookmarkedObjects()
	resStubs := m.RunGC()
	extra := resStubs.PauseSTW - resNoStubs.PauseSTW
	if extra < time.Duration(n)*StubSTWPerObject {
		t.Errorf("stub STW %v too small for %d stubs", extra, n)
	}
}

func TestGCFreesSwappedGarbage(t *testing.T) {
	h, vm, m := newRig()
	root := alloc(h, m, 64, 0)
	h.AddRoot(root)
	dead := alloc(h, m, 2048, 0)
	h.AddRef(root, dead, 0)
	m.SwapOutCold(100*time.Second, units.GiB)
	if !m.IsBookmarked(dead) {
		t.Fatal("setup: not bookmarked")
	}
	slotsBefore := vm.Swap.UsedSlots()
	h.ClearRefs(root, 101*time.Second) // dead becomes garbage
	m.RunGC()
	if h.Object(dead).Live() {
		t.Error("swapped garbage survived")
	}
	if m.BookmarkedObjects() != 0 {
		t.Error("stub not dropped for dead object")
	}
	if vm.Swap.UsedSlots() >= slotsBefore {
		t.Error("swap slots not released for dead object")
	}
	if m.StubBytes() != 0 {
		t.Errorf("stub bytes leaked: %d", m.StubBytes())
	}
}

func TestFaultBackRevivesObject(t *testing.T) {
	h, vm, m := newRig()
	root := alloc(h, m, 64, 0)
	h.AddRoot(root)
	id := alloc(h, m, 2048, 0)
	h.AddRef(root, id, 0)
	m.SwapOutCold(100*time.Second, units.GiB)
	if !m.IsBookmarked(id) {
		t.Fatal("setup: not bookmarked")
	}
	// Mutator touches it: major fault + bookmark shed.
	stall, _ := h.Access(id, false, 101*time.Second)
	if stall <= 0 {
		t.Error("fault-back should stall")
	}
	if m.IsBookmarked(id) {
		t.Error("bookmark not shed on access")
	}
	if !vm.Resident(h.AS, h.Object(id).Addr) {
		t.Error("object not resident after access")
	}
	// Next GC compacts it back into an ordinary pinned region.
	m.RunGC()
	if !h.Object(id).Live() {
		t.Fatal("revived object died in GC")
	}
	if h.RegionOf(id).Kind == heap.KindCold {
		t.Error("revived object still in a swap region after GC")
	}
}

// TestRunGCSurfacesVMemErrors checks that a fault the trace cannot satisfy
// reaches the GC result, as it does for every other collector. The object
// is neither bookmarked nor pinned, so the trace touches its swapped-out
// page while the swap device is offline for longer than a fault may wait.
func TestRunGCSurfacesVMemErrors(t *testing.T) {
	h, vm, m := newRig()
	root := alloc(h, m, 64, 0)
	h.AddRoot(root)
	alloc(h, m, int32(units.PageSize)-64, 0) // fills the root's page
	id, _, _ := h.Alloc(int32(units.PageSize), heap.EpochForeground, 0)
	h.AddRef(root, id, 0)
	addr := h.Object(id).Addr
	vm.AdviseCold(h.AS, addr, units.PageSize)
	if vm.Resident(h.AS, addr) {
		t.Fatal("setup: object page still resident")
	}
	vm.Faults = func() vmem.FaultState { return vmem.FaultState{OfflineFor: time.Hour} }
	vm.MaxOfflineWait = time.Millisecond
	if res := m.RunGC(); !errors.Is(res.Err, vmem.ErrSwapOffline) {
		t.Errorf("RunGC error = %v, want %v", res.Err, vmem.ErrSwapOffline)
	}
}

func TestHeapPagesPinnedAgainstKernelLRU(t *testing.T) {
	// Marvin-managed pages must never be taken by the kernel reclaimer.
	phys := mem.NewPhysical(2 * units.MiB) // tiny DRAM to force pressure
	swap := vmem.NewSwapDevice(vmem.DefaultSwapConfig())
	vm := vmem.NewManager(phys, swap)
	h := heap.New(mem.NewAddressSpace("pin-test"), vm)
	m := New(h, vm)
	h.ReadBarrier = m.NoteAccess

	root, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	m.PinAllocation(root)
	h.AddRoot(root)
	var ids []heap.ObjectID
	kills := 0
	vm.OnPressure = func(need int64) bool {
		kills++
		if kills > 3 {
			return false
		}
		// Free another address space's memory — here, just release some
		// of our own young pages to keep the test moving.
		m.SwapOutCold(1000*time.Second, units.MiB)
		m.RunGC()
		return true
	}
	for i := 0; i < 700; i++ {
		id, _, _ := h.Alloc(2048, heap.EpochForeground, 0)
		m.PinAllocation(id)
		h.AddRef(root, id, 0)
		ids = append(ids, id)
	}
	// Nothing was silently paged out by the kernel: every non-bookmarked
	// object is resident.
	for _, id := range ids {
		if !m.IsBookmarked(id) && !vm.Resident(h.AS, h.Object(id).Addr) {
			t.Fatal("pinned Marvin heap page was reclaimed by the kernel LRU")
		}
	}
}

func TestGCLivenessWithMixedResidency(t *testing.T) {
	r := xrand.New(5)
	h, _, m := newRig()
	root := alloc(h, m, 64, 0)
	h.AddRoot(root)
	var ids []heap.ObjectID
	ids = append(ids, root)
	for i := 0; i < 300; i++ {
		id := alloc(h, m, int32(128+r.Intn(3000)), 0)
		if r.Bool(0.8) {
			h.AddRef(ids[r.Intn(len(ids))], id, 0)
			ids = append(ids, id)
		} // else garbage
	}
	m.SwapOutCold(100*time.Second, units.GiB)
	m.RunGC()
	// Expected reachability.
	reach := map[heap.ObjectID]bool{root: true}
	stack := []heap.ObjectID{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ref := range h.Refs(id) {
			if ref != heap.NilObject && !reach[ref] {
				reach[ref] = true
				stack = append(stack, ref)
			}
		}
	}
	if int64(len(reach)) != h.LiveObjects() {
		t.Errorf("live = %d, reachable = %d", h.LiveObjects(), len(reach))
	}
}

func TestStubAccounting(t *testing.T) {
	h, _, m := newRig()
	root := alloc(h, m, 64, 0)
	h.AddRoot(root)
	id := alloc(h, m, 4096, 0)
	h.AddRef(root, id, 0)
	h.AddRef(id, root, 0) // one outgoing ref on id
	m.SwapOutCold(100*time.Second, units.GiB)
	want := int64(StubBytesBase + StubBytesPerRef)
	if m.StubBytes() != want {
		t.Errorf("stub bytes = %d, want %d", m.StubBytes(), want)
	}
}

func TestRunGCKind(t *testing.T) {
	h, _, m := newRig()
	root := alloc(h, m, 64, 0)
	h.AddRoot(root)
	res := m.RunGC()
	if res.Kind != gc.KindBookmark {
		t.Errorf("kind = %v", res.Kind)
	}
}

// TestBookmarkCountMatchesTable runs random SwapOutCold / mutator access /
// RunGC cycles over a growing, churning heap and requires, after every
// step, that BookmarkedObjects equals the number of IDs IsBookmarked
// reports: bookmarking, fault-back and the death of a bookmarked object
// must each keep the dense table and its count in step.
func TestBookmarkCountMatchesTable(t *testing.T) {
	r := xrand.New(11)
	h, _, m := newRig()
	root := alloc(h, m, 64, 0)
	h.AddRoot(root)
	var parents []heap.ObjectID
	now := time.Duration(0)
	var faultedBack, diedBookmarked bool
	check := func(step string) {
		t.Helper()
		n := 0
		for id := heap.ObjectID(0); int(id) < h.ObjectTableSize()+8; id++ {
			if m.IsBookmarked(id) {
				n++
			}
		}
		if got := m.BookmarkedObjects(); got != n {
			t.Fatalf("%s at %v: BookmarkedObjects() = %d, table holds %d", step, now, got, n)
		}
	}
	for cycle := 0; cycle < 40; cycle++ {
		now += 10 * time.Second
		for i := 0; i < 60; i++ {
			id := alloc(h, m, int32(256+r.Intn(4000)), now)
			switch {
			case len(parents) == 0 || r.Bool(0.3):
				h.AddRef(root, id, now)
				parents = append(parents, id)
			case r.Bool(0.7):
				h.AddRef(parents[r.Intn(len(parents))], id, now)
			} // else garbage at birth
		}
		// Cut a few subtrees loose so bookmarked objects die.
		for i := 0; i < 3 && len(parents) > 0; i++ {
			p := parents[r.Intn(len(parents))]
			if h.Object(p).Live() {
				h.ClearRefs(p, now)
			}
		}
		m.SwapOutCold(now, int64(r.Intn(64))*units.KiB)
		check("SwapOutCold")
		for id := heap.ObjectID(1); int(id) < h.ObjectTableSize(); id++ {
			if h.Object(id).Live() && m.IsBookmarked(id) && r.Bool(0.2) {
				h.Access(id, false, now)
				faultedBack = true
				check("NoteAccess")
			}
		}
		before := m.BookmarkedObjects()
		res := m.RunGC()
		if res.ObjectsFreed > 0 && m.BookmarkedObjects() < before {
			diedBookmarked = true
		}
		check("RunGC")
	}
	if !faultedBack || !diedBookmarked {
		t.Fatalf("cycles never exercised fault-back (%v) or a bookmarked death (%v)", faultedBack, diedBookmarked)
	}
}
