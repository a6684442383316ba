// Package heap models the ART Java heap the paper's GC designs operate on:
// a region-based heap (256 KB regions, Table 2) with bump-pointer
// allocation, an explicit object reference graph rooted in a root set, and
// region metadata (newly-allocated flag, fore/background class, to-region
// kind) that Fleet's BGC and RGS rely on.
//
// Every object occupies a real virtual-address range in the owning app's
// address space, so touching an object touches its pages through
// internal/vmem — that coupling is what makes the GC↔swap conflict (§3.2 of
// the paper) emerge rather than being scripted.
package heap

import (
	"errors"
	"fmt"
	"time"

	"fleetsim/internal/mem"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
)

// ErrDeadObject reports a mutator operation on an object the GC already
// freed — a use-after-free in the simulated app. The heap state is
// untouched; the runtime (android) treats it as an app crash, not a sim
// abort.
var ErrDeadObject = errors.New("heap: operation on dead object")

// ErrObjectTooLarge rejects allocations above the region size — ART uses a
// separate large-object space; workloads here cap object sizes below it.
var ErrObjectTooLarge = errors.New("heap: object exceeds region size")

// ObjectID indexes the heap's object table. IDs are recycled after the
// object dies; use Object.Seq for stable allocation-order identity.
type ObjectID int32

// NilObject is the zero ObjectID; the table reserves index 0 so that the
// zero value is never a live object.
const NilObject ObjectID = 0

// Epoch says which app state an object was allocated in (§4.1).
type Epoch uint8

const (
	// EpochForeground marks FGO: allocated while the app was foreground
	// (or existing at the moment of the switch to background).
	EpochForeground Epoch = iota
	// EpochBackground marks BGO: allocated while backgrounded.
	EpochBackground
)

// RegionKind classifies to-regions for RGS grouping (§5.3.1).
type RegionKind uint8

const (
	// KindNormal is an ordinary allocation region.
	KindNormal RegionKind = iota
	// KindLaunch holds NRO+FYO — objects expected to be re-accessed at the
	// next hot-launch.
	KindLaunch
	// KindWS holds working-set objects used while backgrounded.
	KindWS
	// KindCold holds everything else; RGS actively swaps these out.
	KindCold

	// numRegionKinds sizes dense per-kind tables (Evacuator.to).
	numRegionKinds = int(KindCold) + 1
)

func (k RegionKind) String() string {
	switch k {
	case KindNormal:
		return "normal"
	case KindLaunch:
		return "launch"
	case KindWS:
		return "ws"
	case KindCold:
		return "cold"
	default:
		return fmt.Sprintf("RegionKind(%d)", uint8(k))
	}
}

// Object is one Java object. The struct is the compatibility view over the
// heap's struct-of-arrays tables (see soa.go): the hot per-object state —
// size, liveness, mark generation, region index, edge span — also lives in
// dense ObjectID-indexed slices that collectors walk without loading these
// ~96-byte records. The duplicated fields here are kept in sync by the
// heap-internal mutators (Alloc, KillObject, Evacuator.Copy).
type Object struct {
	Seq  uint64 // monotonic allocation sequence number ("object ID" in Fig. 4)
	Size int32  // bytes, including header
	Addr int64  // current virtual address (changes on evacuation)

	// Refs is the object's outgoing references. The slice is a read-only
	// alias of the object's span in the heap's shared CSR edge arena; it is
	// re-pointed by the heap whenever the span moves. Mutate references
	// only through SetRef/AddRef/ClearRefs.
	Refs []ObjectID

	Region  int32 // owning region ID
	Epoch   Epoch
	AllocGC int32 // heap GC count at allocation (lifetime analysis, Fig. 5)

	// LastAccess is the virtual time of the most recent mutator access,
	// used by the analysis figures and by WS classification.
	LastAccess time.Duration

	// Pinned objects are never evacuated (Marvin stubs, class metadata).
	Pinned bool

	live bool
}

// Live reports whether the slot currently holds a live object.
func (o *Object) Live() bool { return o.live }

// Region is a 256 KB heap region with bump-pointer allocation.
type Region struct {
	ID   int32
	Base int64 // virtual base address
	Used int64 // bump offset

	// NewlyAllocated is true until the first GC after the region was
	// opened; RGS uses it to find FYO (§5.3.1) and minor GC uses it as its
	// collection set.
	NewlyAllocated bool

	// FGO marks regions that hold foreground objects after Fleet's
	// separation step (§5.2). BGC never traces inside FGO regions.
	FGO bool

	// Kind is the RGS to-region classification.
	Kind RegionKind

	// Objects lists the live objects placed in this region.
	Objects []ObjectID

	free bool
}

// Free reports whether the region is unallocated.
func (r *Region) Free() bool { return r.free }

// BytesFree returns remaining bump space.
func (r *Region) BytesFree() int64 { return units.RegionSize - r.Used }

// Stats aggregates per-heap counters.
type Stats struct {
	Allocated      uint64 // objects ever allocated
	AllocatedBytes int64
	LiveObjects    int64
	LiveBytes      int64
	GCCount        int32
}

// Heap is one app's Java heap.
type Heap struct {
	AS *mem.AddressSpace
	VM *vmem.Manager

	objects  []Object
	freeObjs []ObjectID

	// Struct-of-arrays mirrors of the hot object state, indexed by
	// ObjectID and grown in lockstep with objects. Trace/mark loops read
	// these dense tables (1–4 bytes per object) instead of the Object
	// records; marks is the only home of the mark generation, the others
	// duplicate Object fields and are written by the same heap-internal
	// mutators. msize packs each object's byte size (high 32 bits) with
	// its mark generation (low 32): the trace loop's mark check and size
	// read become one load, and the size travels to the visit through the
	// mark queue.
	msize     []uint64
	liveb     []uint8
	regionIdx []int32

	// CSR edge arena: every object's outgoing references live in one
	// shared backing array; object id owns the span
	// edges[off : off+len] with capacity ecap[id], where off and len are
	// packed into espan[id] (off<<32 | len) so the trace hot loop reads
	// one word per object instead of two parallel arrays.
	// edgeWaste counts orphaned slots left behind by span relocation;
	// compaction (soa.go) rewrites the arena when it dominates.
	edges     []ObjectID
	espan     []uint64
	ecap      []int32
	edgeWaste int64

	regions     []*Region
	freeRegions []int32

	// alloc regions per kind: normal allocation uses allocRegion; GC
	// evacuation uses per-kind to-regions.
	allocRegion *Region

	// The root set is kept as an insertion-ordered dense slice plus a
	// position index (rootPos[id] = position+1, 0 = not a root), so root
	// iteration is allocation-free and deterministic and membership is
	// O(1) without a map.
	roots   []ObjectID
	rootPos []int32

	// evacBatch is the reusable destination-touch batch evacuators borrow
	// (ApplyBatch resets it; one evacuation at a time per heap).
	evacBatch vmem.Batch
	// scratch holds the reusable tracing buffers (work queue, seed list)
	// shared by every collector running on this heap. A heap is owned by
	// one simulated runtime, so a single scratch suffices.
	scratch TraceScratch

	seq     uint64
	markGen uint32

	stats Stats

	// BytesSinceGC tracks allocation volume for the growth-threshold
	// trigger (managed by the GC controller in internal/gc).
	BytesSinceGC int64

	// WriteBarrier, if set, runs on every reference store with the object
	// being written. Fleet's BGC installs its card-table barrier here
	// (§5.2).
	WriteBarrier func(obj ObjectID)

	// ReadBarrier, if set, runs on every mutator object access. RGS's
	// grouping GC uses it to mark working-set objects (§5.3.1).
	ReadBarrier func(obj ObjectID)

	// AccessSampler, if set, is called every sampleEvery-th mutator object
	// access with (object, write); the motivation figures (Fig. 4/12b) use
	// it.
	AccessSampler func(obj ObjectID, write bool)
	SampleEvery   int
	accessCount   uint64
}

// New creates an empty heap for the given address space.
func New(as *mem.AddressSpace, vm *vmem.Manager) *Heap {
	h := &Heap{AS: as, VM: vm}
	// Reserve slot 0 as NilObject (never live, so liveb[NilObject] == 0
	// doubles as the nil-reference check in trace loops, and its deadMark
	// entry makes the single-compare mark test skip nil references too).
	h.objects = append(h.objects, Object{})
	h.rootPos = append(h.rootPos, 0)
	h.growSoA()
	h.msize[NilObject] = uint64(deadMark)
	return h
}

// TraceItem is one work-queue entry of a tracing pass: an object plus its
// BFS depth (unused under DFS).
type TraceItem struct {
	ID    ObjectID
	Depth int32
}

// TraceScratch bundles the reusable buffers collectors need per cycle, so
// a steady-state trace performs no allocations. Buffers are owned by the
// heap and handed out via Scratch; tracing is not reentrant per heap.
type TraceScratch struct {
	// Queue is the mark work queue (the paper's mark stack / mark queue).
	Queue []TraceItem
	// MarkQ is the work queue of the fast trace path: each entry packs an
	// object's size (high 32 bits, copied from the mark/size word when the
	// object was marked) with its id (low 32), so a visit needs no
	// per-object size load.
	MarkQ []uint64
	// Seeds is the seed staging buffer (roots + card-derived seeds).
	Seeds []ObjectID
	// Depths is a dense ObjectID-indexed depth table for analysis passes.
	Depths []int32
}

// Scratch returns the heap's reusable trace buffers.
func (h *Heap) Scratch() *TraceScratch { return &h.scratch }

// Stats returns a copy of the heap counters.
func (h *Heap) Stats() Stats {
	s := h.stats
	return s
}

// GCCount returns the number of completed GC cycles.
func (h *Heap) GCCount() int32 { return h.stats.GCCount }

// NoteGCComplete bumps the GC counter and clears every region's
// newly-allocated flag; collectors call it at the end of a cycle.
func (h *Heap) NoteGCComplete() {
	h.stats.GCCount++
	h.BytesSinceGC = 0
	for _, r := range h.regions {
		if !r.free {
			r.NewlyAllocated = false
		}
	}
	// The current allocation region is retired so post-GC allocations
	// start in a fresh NewlyAllocated region.
	h.allocRegion = nil
}

// Object returns the object record for id. The pointer stays valid until
// the object dies.
func (h *Heap) Object(id ObjectID) *Object {
	return &h.objects[id]
}

// LiveObjects returns the number of live objects.
func (h *Heap) LiveObjects() int64 { return h.stats.LiveObjects }

// ForEachLiveObject visits every live object in table order (ascending
// ObjectID) without allocating. Table order is deterministic for a given
// allocation history, so walkers that fold object state into digests or
// validate accounting (internal/faults, internal/snapshot) see a canonical
// sequence.
func (h *Heap) ForEachLiveObject(fn func(ObjectID, *Object)) {
	for i := 1; i < len(h.objects); i++ {
		if h.liveb[i] != 0 {
			fn(ObjectID(i), &h.objects[i])
		}
	}
}

// ObjectTableSize returns the size of the object table (one past the
// largest ObjectID ever issued); collectors use it to size side tables
// indexed by ObjectID.
func (h *Heap) ObjectTableSize() int { return len(h.objects) }

// LiveBytes returns the total size of live objects.
func (h *Heap) LiveBytes() int64 { return h.stats.LiveBytes }

// newRegion opens a fresh region (reusing a freed slot when possible).
func (h *Heap) newRegion(kind RegionKind) *Region {
	var r *Region
	if n := len(h.freeRegions); n > 0 {
		id := h.freeRegions[n-1]
		h.freeRegions = h.freeRegions[:n-1]
		r = h.regions[id]
		r.Used = 0
		r.free = false
		r.FGO = false
		r.Objects = r.Objects[:0]
	} else {
		base := h.AS.Reserve(units.RegionSize)
		r = &Region{ID: int32(len(h.regions)), Base: base}
		h.regions = append(h.regions, r)
	}
	r.NewlyAllocated = true
	r.Kind = kind
	return r
}

// Regions visits every non-free region.
func (h *Heap) Regions(fn func(*Region)) {
	for _, r := range h.regions {
		if !r.free {
			fn(r)
		}
	}
}

// RegionByID returns a region record.
func (h *Heap) RegionByID(id int32) *Region { return h.regions[id] }

// RegionAt returns the region containing the heap address addr. The heap is
// the sole reserver of its address space, so region i occupies
// [i*RegionSize, (i+1)*RegionSize).
func (h *Heap) RegionAt(addr int64) *Region {
	return h.regions[addr/units.RegionSize]
}

// RegionOf returns the region currently holding object id. It reads the
// dense region-index table, not the Object record.
func (h *Heap) RegionOf(id ObjectID) *Region {
	return h.regions[h.regionIdx[id]]
}

// RegionCount returns the number of in-use regions.
func (h *Heap) RegionCount() int {
	n := 0
	for _, r := range h.regions {
		if !r.free {
			n++
		}
	}
	return n
}

// HeapBytes returns the address-space footprint of in-use regions.
func (h *Heap) HeapBytes() int64 {
	return int64(h.RegionCount()) * units.RegionSize
}

// AddressSpanBytes returns the full reserved heap address range — every
// region slot ever created, free or not. Card tables and other
// address-indexed side structures must be interpreted against this span,
// not HeapBytes, because freed region slots still own their addresses.
func (h *Heap) AddressSpanBytes() int64 {
	return int64(len(h.regions)) * units.RegionSize
}

// Alloc allocates an object of size bytes and returns its ID plus the
// synchronous stall (page faults) the allocating thread paid. Objects
// larger than a region are rejected with ErrObjectTooLarge. A vmem error
// (ErrOOM) is returned with the object already created — its pages simply
// are not all resident; the caller decides whether the process survives.
func (h *Heap) Alloc(size int32, epoch Epoch, now time.Duration) (ObjectID, time.Duration, error) {
	if int64(size) > units.RegionSize {
		return NilObject, 0, fmt.Errorf("%w: %d bytes", ErrObjectTooLarge, size)
	}
	if size <= 0 {
		size = 8
	}
	if h.allocRegion == nil || h.allocRegion.BytesFree() < int64(size) {
		h.allocRegion = h.newRegion(KindNormal)
	}
	r := h.allocRegion
	addr := r.Base + r.Used
	r.Used += int64(size)

	var id ObjectID
	if n := len(h.freeObjs); n > 0 {
		id = h.freeObjs[n-1]
		h.freeObjs = h.freeObjs[:n-1]
	} else {
		h.objects = append(h.objects, Object{})
		h.growSoA()
		id = ObjectID(len(h.objects) - 1)
	}
	h.seq++
	// Reuse the dead tenant's arena span (capacity kept, length reset).
	h.espan[id] &= spanOffMask
	off := int32(h.espan[id] >> 32)
	o := &h.objects[id]
	*o = Object{
		Seq:        h.seq,
		Size:       size,
		Addr:       addr,
		Region:     r.ID,
		Epoch:      epoch,
		AllocGC:    h.stats.GCCount,
		LastAccess: now,
		live:       true,
		Refs:       h.edges[off : off : off+h.ecap[id]],
	}
	h.msize[id] = uint64(uint32(size)) << 32 // mark cleared
	h.liveb[id] = 1
	h.regionIdx[id] = r.ID
	r.Objects = append(r.Objects, id)

	h.stats.Allocated++
	h.stats.AllocatedBytes += int64(size)
	h.stats.LiveObjects++
	h.stats.LiveBytes += int64(size)
	h.BytesSinceGC += int64(size)

	// Allocation writes the object header/fields: touch its pages.
	stall, err := h.VM.TouchRange(h.AS, addr, int64(size), true)
	return id, stall, err
}

// AddRoot registers id as a GC root (idempotent).
func (h *Heap) AddRoot(id ObjectID) {
	for int(id) >= len(h.rootPos) {
		h.rootPos = append(h.rootPos, 0)
	}
	if h.rootPos[id] != 0 {
		return
	}
	h.roots = append(h.roots, id)
	h.rootPos[id] = int32(len(h.roots))
}

// RemoveRoot unregisters a root (swap-remove; order of the remaining roots
// is deterministic given the same Add/Remove history).
func (h *Heap) RemoveRoot(id ObjectID) {
	if int(id) >= len(h.rootPos) || h.rootPos[id] == 0 {
		return
	}
	pos := h.rootPos[id] - 1
	last := h.roots[len(h.roots)-1]
	h.roots[pos] = last
	h.rootPos[last] = pos + 1
	h.roots = h.roots[:len(h.roots)-1]
	h.rootPos[id] = 0
}

// IsRoot reports whether id is currently a GC root.
func (h *Heap) IsRoot(id ObjectID) bool {
	return int(id) < len(h.rootPos) && h.rootPos[id] != 0
}

// Roots returns the live root set in insertion order. The slice is shared
// with the heap: do not mutate or append to it — copy via RootSlice (or
// stage through Scratch().Seeds) when a collector needs to extend it.
func (h *Heap) Roots() []ObjectID { return h.roots }

// RootSlice copies the root set into a fresh slice.
func (h *Heap) RootSlice() []ObjectID {
	return append([]ObjectID(nil), h.roots...)
}

// Access simulates a mutator read (or write) of the object: the page is
// touched, barriers and samplers fire, and the synchronous stall is
// returned.
func (h *Heap) Access(id ObjectID, write bool, now time.Duration) (time.Duration, error) {
	o := &h.objects[id]
	if !o.live {
		return 0, fmt.Errorf("%w: access to %d", ErrDeadObject, id)
	}
	o.LastAccess = now
	h.accessCount++
	if h.AccessSampler != nil && h.SampleEvery > 0 && h.accessCount%uint64(h.SampleEvery) == 0 {
		h.AccessSampler(id, write)
	}
	if h.ReadBarrier != nil {
		h.ReadBarrier(id)
	}
	stall, err := h.VM.TouchRange(h.AS, o.Addr, int64(o.Size), write)
	if write && err == nil {
		if h.WriteBarrier != nil {
			h.WriteBarrier(id)
		}
	}
	return stall, err
}

// SetRef points from's i-th reference slot at to (growing the slot list as
// needed), running the write barrier. It returns the page-touch stall.
func (h *Heap) SetRef(from ObjectID, i int, to ObjectID, now time.Duration) (time.Duration, error) {
	if !h.objects[from].live {
		return 0, fmt.Errorf("%w: SetRef on %d", ErrDeadObject, from)
	}
	h.setEdge(from, i, to)
	return h.Access(from, true, now)
}

// AddRef appends a reference from → to.
func (h *Heap) AddRef(from, to ObjectID, now time.Duration) (time.Duration, error) {
	if !h.objects[from].live {
		return 0, fmt.Errorf("%w: AddRef on %d", ErrDeadObject, from)
	}
	h.appendEdge(from, to)
	return h.Access(from, true, now)
}

// ClearRefs drops all outgoing references of from (the workload's way of
// making a subgraph unreachable).
func (h *Heap) ClearRefs(from ObjectID, now time.Duration) (time.Duration, error) {
	h.espan[from] &= spanOffMask
	h.setRefsView(from)
	return h.Access(from, true, now)
}

// Marked reports whether id is marked in the current trace generation.
func (h *Heap) Marked(id ObjectID) bool { return uint32(h.msize[id]) == h.markGen }

// Mark marks id in the current generation; returns true if it was newly
// marked.
func (h *Heap) Mark(id ObjectID) bool {
	w := h.msize[id]
	if uint32(w) == h.markGen {
		return false
	}
	h.msize[id] = w&spanOffMask | uint64(h.markGen)
	return true
}

// BeginTrace starts a new mark generation.
func (h *Heap) BeginTrace() {
	h.markGen++
	if h.markGen == deadMark {
		// Generation wrap (after ~4B traces): stale marks would read as
		// current or dead. Reset every non-dead slot and restart at 1.
		for i, w := range h.msize {
			if uint32(w) != deadMark {
				h.msize[i] = w & spanOffMask
			}
		}
		h.markGen = 1
	}
}

// KillObject frees an object slot (collector-internal).
func (h *Heap) KillObject(id ObjectID) {
	o := &h.objects[id]
	if !o.live {
		return
	}
	o.live = false
	h.liveb[id] = 0
	h.msize[id] = h.msize[id]&spanOffMask | uint64(deadMark)
	h.stats.LiveObjects--
	h.stats.LiveBytes -= int64(o.Size)
	h.freeObjs = append(h.freeObjs, id)
}

// FreeRegion releases a region's memory back to the OS (its pages are
// released from DRAM/swap) and recycles the region slot. Any still-live
// bookkeeping must have been moved out by the collector first.
func (h *Heap) FreeRegion(r *Region) {
	if r.free {
		return
	}
	h.VM.ReleaseRange(h.AS, r.Base, units.RegionSize)
	r.free = true
	r.Used = 0
	r.NewlyAllocated = false
	r.FGO = false
	r.Kind = KindNormal
	r.Objects = r.Objects[:0]
	h.freeRegions = append(h.freeRegions, r.ID)
	if h.allocRegion == r {
		h.allocRegion = nil
	}
}

// Evacuator bundles the state for copying live objects into typed
// to-regions during a collection. Destination page touches are batched:
// Copy only records the written range, and Finish applies the whole
// event's page transitions through vmem.ApplyBatch in one pass — one LRU
// update per destination page instead of one per copied object, one
// kswapd balance check per evacuation instead of one per page. Callers
// must call Finish after the copy loop, before reading Stall/Err or
// freeing the from-regions.
type Evacuator struct {
	h     *Heap
	to    [numRegionKinds]*Region // open to-region per kind
	new   []*Region               // all to-regions opened this cycle
	batch *vmem.Batch             // heap-owned, reused across cycles

	// PageAlign places every copied object on its own page boundary
	// (padding the bump pointer), so each object's pages are private.
	// Object-granularity swap baselines (Marvin) use this: the padding is
	// their swap amplification made physical.
	PageAlign bool

	// PinDest pins destination pages as they are written, so a reclaim
	// running concurrently with the evacuation cannot steal them before
	// the collector finishes (Marvin's resident heap is unevictable).
	PinDest bool

	// CopiedBytes accumulates the volume moved (drives GC CPU cost).
	CopiedBytes int64
	// Stall accumulates page-fault time the GC thread paid writing into
	// to-regions (destination pages are fresh, so normally minor faults).
	// Populated by Finish.
	Stall time.Duration
	// Err latches the first vmem error hit while touching destination
	// pages. The copy itself always completes — object metadata moves are
	// free — so heap accounting stays consistent even under OOM; the
	// collector surfaces Err in its Result. Populated by Finish.
	Err error
}

// NewEvacuator prepares an evacuation pass. The destination-touch batch is
// borrowed from the heap (one GC at a time per heap, like TraceScratch),
// so steady-state evacuation allocates only to-region bookkeeping.
func (h *Heap) NewEvacuator() *Evacuator {
	return &Evacuator{h: h, batch: &h.evacBatch}
}

// Copy moves object id into a to-region of the given kind, updating its
// address. The object's reference slots are preserved (references are by
// ObjectID, so no fix-up pass is needed — matching a concurrent-copying GC
// whose read barrier forwards pointers).
func (ev *Evacuator) Copy(id ObjectID, kind RegionKind) {
	h := ev.h
	o := &h.objects[id]
	if o.Pinned {
		return
	}
	need := int64(o.Size)
	if ev.PageAlign {
		need = units.PagesFor(int64(o.Size)) * units.PageSize
	}
	r := ev.to[kind]
	if r == nil || r.BytesFree() < need {
		r = h.newRegion(kind)
		// To-regions opened during GC are not "newly allocated" in the
		// FYO sense — they hold old objects.
		r.NewlyAllocated = false
		ev.to[kind] = r
		ev.new = append(ev.new, r)
	}
	addr := r.Base + r.Used
	r.Used += need
	o.Addr = addr
	o.Region = r.ID
	h.regionIdx[id] = r.ID
	r.Objects = append(r.Objects, id)
	ev.CopiedBytes += int64(o.Size)
	if ev.PinDest {
		ev.batch.TouchPin(h.AS, addr, int64(o.Size), true)
	} else {
		ev.batch.Touch(h.AS, addr, int64(o.Size), true)
	}
}

// Finish applies the batched destination page touches (faults, LRU
// insertions, dirty bits, pins) in one vmem pass and accumulates the
// resulting stall and first error into Stall/Err. It must run after the
// copy loop and before the from-regions are freed, so destination pages
// fault in while the sources still hold their frames — the same pressure
// ordering as the per-object path it replaces. Idempotent between copies.
func (ev *Evacuator) Finish() {
	if ev.batch.Len() == 0 {
		return
	}
	stall, err := ev.h.VM.ApplyBatch(ev.batch)
	ev.Stall += stall
	if err != nil && ev.Err == nil {
		ev.Err = err
	}
}

// ToRegions returns every to-region opened by this evacuation.
func (ev *Evacuator) ToRegions() []*Region { return ev.new }
