// Package marvin implements the Marvin baseline [32] the paper compares
// against (Table 1): a bookmarking GC co-designed with object-granularity
// swap.
//
// Mechanisms modelled, per §2.2/§3.1/§6 of the Fleet paper:
//
//   - Object-granularity swap with a large-object threshold (1024 B in the
//     evaluation): only objects at least the threshold size are ever
//     swapped; small objects — the majority in Android apps — stay
//     resident forever. Marvin manages the Java heap's residency itself,
//     so ordinary heap pages are pinned against the kernel's page LRU.
//
//   - Bookmarking: before an object is swapped out, its outgoing
//     references are recorded in a resident stub. The GC traces through
//     stubs without touching (faulting) the swapped object.
//
//   - Object-LRU selection that is agnostic to hot-launch needs: the
//     least-recently-used eligible objects are evicted first, whether or
//     not the next launch will want them.
//
//   - Swap amplification: analysis is per object but IO is per page, so a
//     faulted object pays at least one full page of flash IO even when it
//     is smaller than a page. Evicted objects are batched compactly, as
//     the real system writes them in bulk.
//
//   - Consistency stop-the-world: keeping stubs and objects coherent
//     costs a pause proportional to the bookmarked population on every
//     collection (§3.1 drawback i).
package marvin

import (
	"sort"
	"time"

	"fleetsim/internal/gc"
	"fleetsim/internal/heap"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
)

// Cost-model constants for Marvin-specific overheads.
const (
	// StubSTWPerObject is the per-bookmarked-object share of the
	// consistency stop-the-world pause paid at each GC.
	StubSTWPerObject = 3 * time.Microsecond
	// SwapOutSTWPerObject is the pause share for newly evicting an object
	// (creating its stub under STW).
	SwapOutSTWPerObject = 1 * time.Microsecond
	// StubBytesBase is the resident footprint of one stub record.
	StubBytesBase = 32
	// StubBytesPerRef is the per-reference footprint of a stub.
	StubBytesPerRef = 4
)

// Object-LRU eligibility.
const (
	// Threshold is the large-object threshold used in the paper's
	// evaluation (§6, "we set the threshold parameter to 1024 bytes"):
	// smaller objects are never swapped.
	Threshold int32 = 1024
	// coldWindow is how long an eligible object must go untouched before
	// the object LRU may evict it.
	coldWindow = 5 * time.Second
)

// Marvin manages one app's heap under the Marvin policy.
type Marvin struct {
	h  *heap.Heap
	vm *vmem.Manager

	// bookmarked marks the objects whose data lives in (object) swap and
	// whose stub is resident, indexed by ObjectID (IDs past its end are
	// not bookmarked); nBookmarked counts the set entries. An entry is
	// cleared when the object is faulted back or dies.
	bookmarked  []bool
	nBookmarked int

	stubBytes int64
}

// New creates a Marvin instance for the heap.
func New(h *heap.Heap, vm *vmem.Manager) *Marvin {
	return &Marvin{h: h, vm: vm}
}

// BookmarkedObjects returns how many objects currently live in object swap.
func (m *Marvin) BookmarkedObjects() int { return m.nBookmarked }

// StubBytes returns the resident stub footprint.
func (m *Marvin) StubBytes() int64 { return m.stubBytes }

// PinAllocation pins the pages of a freshly allocated object: Marvin's heap
// does not participate in the kernel page LRU (residency is managed at
// object granularity by Marvin itself). The runtime calls this after every
// Alloc, while the fresh pages are still resident.
func (m *Marvin) PinAllocation(id heap.ObjectID) {
	m.vm.Pin(m.h.AS, m.h.Addr(id), int64(m.h.Size(id)))
}

// NoteAccess must be called when a mutator touches an object: a bookmarked
// object faulting back in sheds its bookmark (the stub is reconciled) and
// its pages are re-pinned.
func (m *Marvin) NoteAccess(id heap.ObjectID) {
	if !m.IsBookmarked(id) {
		return
	}
	m.unbookmark(id)
	// The page fault itself was paid by heap.Access; re-pin so the kernel
	// LRU leaves the revived object alone.
	m.vm.Pin(m.h.AS, m.h.Addr(id), int64(m.h.Size(id)))
}

// unbookmark drops a bookmarked object's stub.
func (m *Marvin) unbookmark(id heap.ObjectID) {
	m.bookmarked[id] = false
	m.nBookmarked--
	m.stubBytes -= m.stubSize(id)
}

// stubSize is the resident stub footprint of a bookmarked object: a fixed
// header plus one slot per outgoing reference.
func (m *Marvin) stubSize(id heap.ObjectID) int64 {
	return StubBytesBase + StubBytesPerRef*int64(len(m.h.Refs(id)))
}

// SwapOutCold is Marvin's proactive reclaimer: evict up to budgetBytes of
// the least-recently-used eligible objects (live, at least Threshold bytes,
// idle past coldWindow, not already bookmarked, not a root). It returns the
// number of objects evicted, the bytes reclaimed from DRAM, and the STW
// pause the eviction charged (stub creation is a stop-the-world operation,
// §3.1). Write IO is charged asynchronously via the vmem stats.
func (m *Marvin) SwapOutCold(now time.Duration, budgetBytes int64) (objects int, bytes int64, pause time.Duration) {
	h := m.h
	type cand struct {
		id   heap.ObjectID
		last time.Duration
	}
	var cands []cand
	h.Regions(func(r *heap.Region) {
		if r.Kind == heap.KindCold {
			return // already a swap region
		}
		for _, id := range r.Objects {
			if !h.Live(id) || h.RegionOf(id) != r || h.Size(id) < Threshold {
				continue
			}
			if h.IsRoot(id) {
				continue
			}
			if m.IsBookmarked(id) {
				continue
			}
			last := h.LastAccess(id)
			if now-last < coldWindow {
				continue
			}
			cands = append(cands, cand{id, last})
		}
	})
	// Object LRU: oldest access first.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].last != cands[j].last {
			return cands[i].last < cands[j].last
		}
		return cands[i].id < cands[j].id
	})

	if n := h.ObjectTableSize(); len(m.bookmarked) < n {
		m.bookmarked = append(m.bookmarked, make([]bool, n-len(m.bookmarked))...)
	}
	ev := h.NewEvacuator()
	var moved []*heap.Region
	for _, c := range cands {
		if bytes >= budgetBytes {
			break
		}
		// The old copy's pages stay pinned until the next RunGC compacts
		// the from-regions away (they may share pages with resident
		// neighbours); DRAM is therefore reclaimed at GC, as in Marvin.
		ev.Copy(c.id, heap.KindCold)
		m.bookmarked[c.id] = true
		m.nBookmarked++
		m.stubBytes += m.stubSize(c.id)
		objects++
		bytes += int64(h.Size(c.id))
		pause += SwapOutSTWPerObject
	}
	// Materialize the copies' pages before advising them out: AdviseCold
	// only takes resident pages.
	ev.Finish()
	moved = ev.ToRegions()
	// Push every swap region's pages out at object/page granularity.
	for _, r := range moved {
		m.vm.AdviseCold(h.AS, r.Base, units.RegionSize)
	}
	return objects, bytes, pause
}

// IsBookmarked reports whether the object's data currently lives in object
// swap.
func (m *Marvin) IsBookmarked(id heap.ObjectID) bool {
	return int(id) < len(m.bookmarked) && m.bookmarked[id]
}

// Retire drops a dead app's per-object bookmark table, keeping the
// counters. Nothing may run on a retired Marvin again.
func (m *Marvin) Retire() { m.bookmarked = nil }

// RunGC is Marvin's bookmarking collection: a full trace that consults
// stubs for swapped objects (never faulting them), followed by a compacting
// evacuation of the resident heap. Swap regions are collected in place:
// dead bookmarked objects release their swap pages without IO.
func (m *Marvin) RunGC() gc.Result {
	h := m.h
	res := gc.Result{Kind: gc.KindBookmark}

	seeds := h.Roots()
	res.PauseSTW += gc.FlipPause + time.Duration(len(seeds))*gc.RootScanCPU
	// Consistency STW: reconcile every stub with its object state.
	res.PauseSTW += time.Duration(m.nBookmarked) * StubSTWPerObject

	h.BeginTrace()
	res.AddTrace(gc.Trace(h, seeds, gc.TraceOpts{
		ShouldTouch: func(id heap.ObjectID) bool { return !m.IsBookmarked(id) },
	}))

	// Partition regions: ordinary regions are evacuated and freed; swap
	// regions (KindCold) are collected in place.
	var ordinary, swapRegions []*heap.Region
	h.Regions(func(r *heap.Region) {
		if r.Kind == heap.KindCold {
			swapRegions = append(swapRegions, r)
		} else {
			ordinary = append(ordinary, r)
		}
	})

	ev := h.NewEvacuator()
	// The compacted resident heap is unevictable: pin destination pages as
	// they are written so concurrent reclaim cannot steal them before the
	// cycle ends. The copies fault in before the from-regions release
	// their frames.
	ev.PinDest = true
	gc.Evacuate(h, ev, &res, ordinary, nil)

	// Collect swap regions in place: dead bookmarked objects are killed
	// (their pages free when the whole region empties — swap-space
	// fragmentation, as in the real system); objects that faulted back
	// since the last GC are compacted into the resident heap.
	for _, r := range swapRegions {
		liveLeft := 0
		for _, id := range r.Objects {
			if !h.Live(id) || h.RegionOf(id) != r {
				continue
			}
			size := h.Size(id)
			if !h.Marked(id) {
				// Dead: drop stub (if still bookmarked).
				if m.IsBookmarked(id) {
					m.unbookmark(id)
				}
				res.ObjectsFreed++
				res.BytesFreed += int64(size)
				h.KillObject(id)
				continue
			}
			if m.IsBookmarked(id) {
				liveLeft++ // stays bookmarked in place
				continue
			}
			// Revived (resident) object: compact it back.
			ev.Copy(id, heap.KindNormal)
			res.ObjectsCopied++
			res.BytesCopied += int64(size)
			res.GCThreadCPU += gc.CopyCost(size)
		}
		if liveLeft == 0 {
			h.FreeRegion(r)
			res.RegionsFreed++
		}
	}

	before := ev.Stall
	ev.Finish()
	res.GCFaultStall += ev.Stall - before
	res.NoteErr(ev.Err)
	// The newly compacted resident heap is pinned again (Marvin owns its
	// residency).
	for _, r := range ev.ToRegions() {
		m.vm.Pin(h.AS, r.Base, r.Used)
	}

	res.PauseSTW += gc.FinalPause
	h.NoteGCComplete()
	return res
}
