package heap

import (
	"errors"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"fleetsim/internal/mem"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
)

// newTestHeap builds a heap backed by a generous device so tests exercise
// heap logic, not memory pressure.
func newTestHeap() *Heap {
	phys := mem.NewPhysical(64 * units.MiB)
	swap := vmem.NewSwapDevice(vmem.DefaultSwapConfig())
	vm := vmem.NewManager(phys, swap)
	as := mem.NewAddressSpace("test-app")
	return New(as, vm)
}

func TestAllocBasics(t *testing.T) {
	h := newTestHeap()
	id, stall, _ := h.Alloc(512, EpochForeground, 0)
	if id == NilObject {
		t.Fatal("alloc returned nil object")
	}
	if stall <= 0 {
		t.Error("first alloc should minor-fault")
	}
	o := h.Object(id)
	if o.Size != 512 || o.Epoch != EpochForeground || !o.Live() {
		t.Errorf("object = %+v", o)
	}
	if h.LiveObjects() != 1 || h.LiveBytes() != 512 {
		t.Errorf("live: %d objects, %d bytes", h.LiveObjects(), h.LiveBytes())
	}
	st := h.Stats()
	if st.Allocated != 1 || st.AllocatedBytes != 512 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAllocSequenceMonotonic(t *testing.T) {
	h := newTestHeap()
	var prev uint64
	for i := 0; i < 100; i++ {
		id, _, _ := h.Alloc(64, EpochForeground, 0)
		seq := h.Object(id).Seq
		if seq <= prev {
			t.Fatalf("seq %d not monotonic after %d", seq, prev)
		}
		prev = seq
	}
}

func TestBumpPointerPlacement(t *testing.T) {
	h := newTestHeap()
	a, _, _ := h.Alloc(100, EpochForeground, 0)
	b, _, _ := h.Alloc(100, EpochForeground, 0)
	oa, ob := h.Object(a), h.Object(b)
	if ob.Addr != oa.Addr+100 {
		t.Errorf("not bump allocated: %d then %d", oa.Addr, ob.Addr)
	}
	if oa.Region != ob.Region {
		t.Error("small objects should share a region")
	}
}

func TestRegionOverflowOpensNewRegion(t *testing.T) {
	h := newTestHeap()
	// Fill most of a region then allocate something that doesn't fit.
	big := int32(units.RegionSize - 100)
	a, _, _ := h.Alloc(big, EpochForeground, 0)
	b, _, _ := h.Alloc(200, EpochForeground, 0)
	if h.Object(a).Region == h.Object(b).Region {
		t.Error("second object should be in a fresh region")
	}
	if h.RegionCount() != 2 {
		t.Errorf("regions = %d", h.RegionCount())
	}
}

func TestOversizeAllocReturnsError(t *testing.T) {
	h := newTestHeap()
	id, _, err := h.Alloc(int32(units.RegionSize+1), EpochForeground, 0)
	if !errors.Is(err, ErrObjectTooLarge) {
		t.Errorf("oversize alloc = %v, want ErrObjectTooLarge", err)
	}
	if id != NilObject {
		t.Error("failed alloc must return NilObject")
	}
	if h.LiveObjects() != 0 {
		t.Error("failed alloc must not create an object")
	}
}

func TestRegionAtAndRegionOf(t *testing.T) {
	h := newTestHeap()
	id, _, _ := h.Alloc(512, EpochBackground, 0)
	o := h.Object(id)
	if h.RegionAt(o.Addr) != h.RegionOf(id) {
		t.Error("RegionAt and RegionOf disagree")
	}
	if h.RegionOf(id).ID != o.Region {
		t.Error("RegionOf wrong region")
	}
}

func TestRootsAndRefs(t *testing.T) {
	h := newTestHeap()
	root, _, _ := h.Alloc(64, EpochForeground, 0)
	child, _, _ := h.Alloc(64, EpochForeground, 0)
	h.AddRoot(root)
	h.AddRef(root, child, 0)
	if len(h.Roots()) != 1 {
		t.Errorf("roots = %d", len(h.Roots()))
	}
	if got := h.Refs(root); len(got) != 1 || got[0] != child {
		t.Errorf("refs = %v", got)
	}
	h.RemoveRoot(root)
	if len(h.RootSlice()) != 0 {
		t.Error("root not removed")
	}
}

func TestSetRefGrowsSlots(t *testing.T) {
	h := newTestHeap()
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	b, _, _ := h.Alloc(64, EpochForeground, 0)
	h.SetRef(a, 3, b, 0)
	refs := h.Refs(a)
	if len(refs) != 4 || refs[3] != b || refs[0] != NilObject {
		t.Errorf("refs = %v", refs)
	}
}

func TestClearRefs(t *testing.T) {
	h := newTestHeap()
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	b, _, _ := h.Alloc(64, EpochForeground, 0)
	h.AddRef(a, b, 0)
	h.ClearRefs(a, 0)
	if len(h.Refs(a)) != 0 {
		t.Error("refs not cleared")
	}
}

func TestClearRefsOnDeadObject(t *testing.T) {
	// Marvin's sweep reads a dead object's span length for its stub size,
	// so a refused ClearRefs must leave the span alone.
	h := newTestHeap()
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	b, _, _ := h.Alloc(64, EpochForeground, 0)
	h.AddRef(a, b, 0)
	h.KillObject(a)
	if _, err := h.ClearRefs(a, 0); !errors.Is(err, ErrDeadObject) {
		t.Fatalf("ClearRefs on dead object: err = %v, want ErrDeadObject", err)
	}
	if got := h.Refs(a); len(got) != 1 || got[0] != b {
		t.Errorf("dead object's refs = %v, want [%d] untouched", got, b)
	}
}

// TestObjectRecordLayout pins the per-object records: the hot record at
// 32 pointer-free bytes, so it never straddles a cache line, and the cold
// record at 16. A field that can hold a pointer would put every app's
// object tables back under the Go collector's scan, and a wider record
// grows every table.
func TestObjectRecordLayout(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s is a %s: object records must hold no pointer", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("HotRecord", reflect.TypeOf(HotRecord{}))
	walk("coldRecord", reflect.TypeOf(coldRecord{}))
	if got := unsafe.Sizeof(HotRecord{}); got != 32 {
		t.Errorf("unsafe.Sizeof(HotRecord{}) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(coldRecord{}); got != 16 {
		t.Errorf("unsafe.Sizeof(coldRecord{}) = %d, want 16", got)
	}
}

// TestDerivedFields checks the fields the heap derives instead of
// storing: liveness from the mark (a dead slot is never marked live
// again, by Mark or by a new generation), size from the mark/size word,
// and region from the address, through allocation, evacuation, death and
// slot recycling.
func TestDerivedFields(t *testing.T) {
	h := newTestHeap()
	a, _, _ := h.Alloc(300, EpochForeground, 0)
	if !h.Live(a) || h.Size(a) != 300 || h.RegionOf(a) != h.RegionAt(h.Addr(a)) {
		t.Fatalf("fresh object: live %v size %d", h.Live(a), h.Size(a))
	}
	ev := h.NewEvacuator()
	ev.Copy(a, KindCold)
	ev.Finish()
	if r := h.RegionOf(a); r.Kind != KindCold || h.Object(a).Region != r.ID || h.Size(a) != 300 {
		t.Errorf("after Copy: region %d kind %v, Object().Region %d, size %d",
			r.ID, r.Kind, h.Object(a).Region, h.Size(a))
	}
	h.BeginTrace()
	h.KillObject(a)
	if h.Live(a) || h.Object(a).Live() {
		t.Fatal("killed object reads live")
	}
	if h.Mark(a) || h.Marked(a) || h.Live(a) {
		t.Error("Mark revived a dead slot")
	}
	h.BeginTrace()
	if h.Live(a) {
		t.Error("a new generation revived a dead slot")
	}
	if h.Live(NilObject) {
		t.Error("NilObject reads live")
	}
	b, _, _ := h.Alloc(40, EpochBackground, time.Second)
	if b != a || !h.Live(b) || h.Size(b) != 40 || h.LastAccess(b) != time.Second {
		t.Errorf("recycled slot %d: live %v size %d last access %v", b, h.Live(b), h.Size(b), h.LastAccess(b))
	}
}

func TestWriteBarrierFires(t *testing.T) {
	h := newTestHeap()
	var barriered []ObjectID
	h.WriteBarrier = func(id ObjectID) { barriered = append(barriered, id) }
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	b, _, _ := h.Alloc(64, EpochForeground, 0)
	h.AddRef(a, b, 0)
	if len(barriered) != 1 || barriered[0] != a {
		t.Errorf("write barrier calls = %v", barriered)
	}
	// Reads must not fire the write barrier.
	h.Access(a, false, 0)
	if len(barriered) != 1 {
		t.Error("read fired write barrier")
	}
}

func TestReadBarrierFires(t *testing.T) {
	h := newTestHeap()
	var reads int
	h.ReadBarrier = func(id ObjectID) { reads++ }
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	h.Access(a, false, 0)
	h.Access(a, true, 0)
	if reads != 2 {
		t.Errorf("read barrier calls = %d", reads)
	}
}

func TestAccessSampler(t *testing.T) {
	h := newTestHeap()
	var sampled int
	h.AccessSampler = func(id ObjectID, write bool) { sampled++ }
	h.SampleEvery = 10
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	for i := 0; i < 100; i++ {
		h.Access(a, false, 0)
	}
	if sampled != 10 {
		t.Errorf("sampled %d of 100 accesses at 1/10", sampled)
	}
}

func TestAccessDeadObjectReturnsError(t *testing.T) {
	h := newTestHeap()
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	h.KillObject(a)
	if _, err := h.Access(a, false, 0); !errors.Is(err, ErrDeadObject) {
		t.Errorf("access to dead object = %v, want ErrDeadObject", err)
	}
}

func TestKillAndSlotRecycling(t *testing.T) {
	h := newTestHeap()
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	h.KillObject(a)
	if h.LiveObjects() != 0 || h.LiveBytes() != 0 {
		t.Error("kill did not update stats")
	}
	h.KillObject(a) // double-kill is a no-op
	b, _, _ := h.Alloc(32, EpochBackground, 0)
	if b != a {
		t.Errorf("slot not recycled: got %d want %d", b, a)
	}
	if h.Object(b).Size != 32 || h.Object(b).Epoch != EpochBackground {
		t.Error("recycled slot has stale data")
	}
}

func TestNoteGCCompleteClearsNewlyAllocated(t *testing.T) {
	h := newTestHeap()
	h.Alloc(64, EpochForeground, 0)
	r := h.RegionByID(0)
	if !r.NewlyAllocated {
		t.Fatal("fresh region should be NewlyAllocated")
	}
	h.NoteGCComplete()
	if r.NewlyAllocated {
		t.Error("NewlyAllocated not cleared by GC")
	}
	if h.GCCount() != 1 {
		t.Errorf("gc count = %d", h.GCCount())
	}
	// Allocation after GC opens a fresh NewlyAllocated region.
	id, _, _ := h.Alloc(64, EpochForeground, 0)
	if !h.RegionOf(id).NewlyAllocated {
		t.Error("post-GC allocation region should be NewlyAllocated")
	}
}

func TestMarkGenerations(t *testing.T) {
	h := newTestHeap()
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	h.BeginTrace()
	if h.Marked(a) {
		t.Error("fresh trace should have nothing marked")
	}
	if !h.Mark(a) {
		t.Error("first Mark must report newly marked")
	}
	if h.Mark(a) {
		t.Error("second Mark must report already marked")
	}
	if !h.Marked(a) {
		t.Error("Marked should now be true")
	}
	h.BeginTrace()
	if h.Marked(a) {
		t.Error("new generation must clear marks")
	}
}

func TestFreeRegionReleasesMemory(t *testing.T) {
	h := newTestHeap()
	id, _, _ := h.Alloc(1024, EpochForeground, 0)
	r := h.RegionOf(id)
	h.KillObject(id)
	resBefore := h.AS.ResidentPages()
	h.FreeRegion(r)
	if !r.Free() {
		t.Error("region not freed")
	}
	if h.AS.ResidentPages() >= resBefore {
		t.Error("region pages not released")
	}
	// Freed region is recycled by the next allocation.
	id2, _, _ := h.Alloc(64, EpochForeground, 0)
	if h.RegionOf(id2) != r {
		t.Error("freed region slot not recycled")
	}
}

func TestEvacuatorCopies(t *testing.T) {
	h := newTestHeap()
	id, _, _ := h.Alloc(300, EpochForeground, 0)
	oldAddr := h.Object(id).Addr
	oldRegion := h.Object(id).Region

	ev := h.NewEvacuator()
	ev.Copy(id, KindLaunch)
	o := h.Object(id)
	if o.Addr == oldAddr || o.Region == oldRegion {
		t.Error("object not moved")
	}
	newR := h.RegionOf(id)
	if newR.Kind != KindLaunch {
		t.Errorf("to-region kind = %v", newR.Kind)
	}
	if newR.NewlyAllocated {
		t.Error("to-region must not count as newly allocated")
	}
	if len(ev.ToRegions()) != 1 {
		t.Errorf("to-regions = %d", len(ev.ToRegions()))
	}
}

func TestEvacuatorGroupsByKind(t *testing.T) {
	h := newTestHeap()
	var launch, cold []ObjectID
	for i := 0; i < 10; i++ {
		a, _, _ := h.Alloc(256, EpochForeground, 0)
		b, _, _ := h.Alloc(256, EpochForeground, 0)
		launch = append(launch, a)
		cold = append(cold, b)
	}
	ev := h.NewEvacuator()
	for _, id := range launch {
		ev.Copy(id, KindLaunch)
	}
	for _, id := range cold {
		ev.Copy(id, KindCold)
	}
	// All launch objects must share region kind Launch, and be compact.
	lr := h.RegionOf(launch[0])
	for _, id := range launch {
		if h.RegionOf(id).Kind != KindLaunch {
			t.Fatal("launch object in wrong region kind")
		}
	}
	for _, id := range cold {
		if h.RegionOf(id).Kind != KindCold {
			t.Fatal("cold object in wrong region kind")
		}
		if h.RegionOf(id) == lr {
			t.Fatal("cold object grouped with launch objects")
		}
	}
}

func TestHeapBytes(t *testing.T) {
	h := newTestHeap()
	h.Alloc(100, EpochForeground, 0)
	if h.HeapBytes() != units.RegionSize {
		t.Errorf("heap bytes = %d", h.HeapBytes())
	}
}

func TestRefsSliceReuseNotAliased(t *testing.T) {
	// Regression guard: a recycled object slot reuses the dead tenant's
	// edge-arena span; ensure the new object starts with zero refs.
	h := newTestHeap()
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	b, _, _ := h.Alloc(64, EpochForeground, 0)
	h.AddRef(a, b, 0)
	h.KillObject(a)
	c, _, _ := h.Alloc(64, EpochForeground, 0)
	if c != a {
		t.Skip("slot not recycled in this configuration")
	}
	if len(h.Refs(c)) != 0 {
		t.Error("recycled object inherited refs")
	}
}

func TestLastAccessUpdated(t *testing.T) {
	h := newTestHeap()
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	h.Access(a, false, 5*time.Second)
	if h.Object(a).LastAccess != 5*time.Second {
		t.Errorf("LastAccess = %v", h.Object(a).LastAccess)
	}
}

// TestGrowKeepsTablesInPlace checks Grow's contract: it changes no
// length, and after Grow(n, e) the next n allocations and e edge-arena
// slots extend every table without moving its backing array.
func TestGrowKeepsTablesInPlace(t *testing.T) {
	const n = 1000
	h := newTestHeap()
	prev, _, _ := h.Alloc(64, EpochForeground, 0)
	h.AddRoot(prev)
	objects, edges := len(h.hot), len(h.edges)

	h.Grow(n, 2*n)
	if len(h.hot) != objects || len(h.cold) != objects || len(h.ecap) != objects ||
		len(h.edges) != edges {
		t.Fatal("Grow changed a table's length")
	}
	arrays := func() [4]uintptr {
		return [4]uintptr{
			uintptr(unsafe.Pointer(unsafe.SliceData(h.hot))),
			uintptr(unsafe.Pointer(unsafe.SliceData(h.cold))),
			uintptr(unsafe.Pointer(unsafe.SliceData(h.ecap))),
			uintptr(unsafe.Pointer(unsafe.SliceData(h.edges))),
		}
	}
	before := arrays()

	// A chain: each link gives its parent a fresh two-slot span, so n
	// links take exactly n objects and 2n arena slots.
	for i := 0; i < n; i++ {
		id, _, _ := h.Alloc(64, EpochForeground, 0)
		h.AddRef(prev, id, 0)
		prev = id
	}
	if len(h.hot) != objects+n || len(h.edges) != edges+2*n {
		t.Fatalf("chain used %d objects and %d edge slots, want %d and %d",
			len(h.hot)-objects, len(h.edges)-edges, n, 2*n)
	}
	if after := arrays(); after != before {
		t.Errorf("a table moved within its reservation: %x -> %x", before, after)
	}
}
