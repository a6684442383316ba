package core

import (
	"time"

	"fleetsim/internal/cardtable"
	"fleetsim/internal/gc"
	"fleetsim/internal/heap"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
)

// State is Fleet's per-app lifecycle state (§5.1 workflow).
type State uint8

// Lifecycle states.
const (
	// StateInactive: app in (stable) foreground; Fleet is standing down
	// and the app behaves like stock Android.
	StateInactive State = iota
	// StatePendingGroup: app has gone background; waiting out Ts before
	// the grouping GC.
	StatePendingGroup
	// StateActive: grouping is done; BGC and swap advice are live.
	StateActive
	// StatePendingStop: app returned to foreground; waiting out Tf before
	// standing down.
	StatePendingStop
)

func (s State) String() string {
	switch s {
	case StateInactive:
		return "inactive"
	case StatePendingGroup:
		return "pending-group"
	case StateActive:
		return "active"
	case StatePendingStop:
		return "pending-stop"
	default:
		return "unknown"
	}
}

// GroupingStats reports what one grouping GC classified (feeds Fig. 6).
type GroupingStats struct {
	NRO, FYO, WS, Cold         int64 // object counts (launch classes may overlap: NRO∩FYO counted in both)
	NROBytes, FYOBytes         int64
	LaunchBytes, WSBytes       int64
	ColdBytes                  int64
	LaunchRegions, ColdRegions int
	WSRegions                  int
	// AdviseIO is the swap-out time spent actively writing cold regions
	// (issued from Fleet's background thread, not a mutator stall).
	AdviseIO time.Duration
}

// Fleet drives BGC + RGS for one app's heap.
type Fleet struct {
	cfg Config
	h   *heap.Heap
	vm  *vmem.Manager

	state State

	// card is the BGC card table over FGO addresses (§5.2).
	card *cardtable.Table

	// Region sets from the last grouping.
	launchRegions []*heap.Region
	wsRegions     []*heap.Region
	coldRegions   []*heap.Region

	lastGrouping GroupingStats

	// classes caches the last grouping's per-object classification,
	// indexed by ObjectID (analysis + tests).
	classes []Class

	// Leak-fallback state (§5.2): consecutive low-yield BGC cycles and
	// the allocation volume observed at the last cycle.
	lowYieldCycles int
	fullFallbacks  int

	// swapFallbacks counts groupings skipped because the swap device was
	// in an offline fault window: with nothing to steer, Fleet degrades to
	// the stock full-heap collection until the next background cycle.
	swapFallbacks int
}

// New creates a Fleet instance for the heap.
func New(cfg Config, h *heap.Heap, vm *vmem.Manager) *Fleet {
	return &Fleet{cfg: cfg, h: h, vm: vm}
}

// Config returns the active configuration.
func (f *Fleet) Config() Config { return f.cfg }

// State returns the lifecycle state.
func (f *Fleet) State() State { return f.state }

// LastGrouping returns stats from the most recent grouping GC.
func (f *Fleet) LastGrouping() GroupingStats { return f.lastGrouping }

// CardTable exposes the BGC card table (nil before the first grouping).
func (f *Fleet) CardTable() *cardtable.Table { return f.card }

// ClassOf returns the last grouping's classification for an object (cold if
// the object was allocated after the grouping).
func (f *Fleet) ClassOf(id heap.ObjectID) Class {
	if int(id) < len(f.classes) {
		return f.classes[id]
	}
	return ClassCold
}

// OnBackground notes the switch to background; the runtime must call
// RunGrouping once BackgroundWait has elapsed (it owns the clock).
func (f *Fleet) OnBackground() {
	f.state = StatePendingGroup
}

// OnForeground notes the hot-launch; the runtime must call Stop once
// ForegroundWait has elapsed. BGC's barrier stays armed until then, as in
// the paper.
func (f *Fleet) OnForeground() {
	if f.state == StateActive || f.state == StatePendingGroup {
		f.state = StatePendingStop
	}
}

// Stop stands Fleet down (Tf expired in stable foreground): advice is
// cleared, the barrier is disarmed, and region classes dissolve.
func (f *Fleet) Stop() {
	f.state = StateInactive
	f.card = nil
	for _, r := range f.launchRegions {
		if !r.Free() {
			f.vm.AdviseNormal(f.h.AS, r.Base, units.RegionSize)
		}
	}
	f.h.Regions(func(r *heap.Region) { r.FGO = false })
	f.launchRegions, f.wsRegions, f.coldRegions = nil, nil, nil
}

// WriteBarrier is Fleet's addition to the heap's write-barrier chain: while
// BGC is armed, writes to FGO dirty the card for the object's address
// (§5.2). The runtime composes this with ART's remembered-set barrier.
func (f *Fleet) WriteBarrier(id heap.ObjectID) {
	if f.card == nil || f.state == StateInactive {
		return
	}
	addr := f.h.Addr(id)
	if f.h.RegionAt(addr).FGO {
		f.card.MarkDirty(addr)
	}
}

// wsWindow is the recency horizon for working-set classification: an
// object counts as WS if a mutator touched it within this window before
// the grouping GC. It stands in for the paper's read-barrier marking,
// which needs true concurrency (see DESIGN.md §5).
const wsWindow = 10 * time.Second

// classify computes an object's class given its BFS depth (§5.3.1 rules).
func (f *Fleet) classify(id heap.ObjectID, depth int, now time.Duration) Class {
	if depth >= 0 && depth <= f.cfg.NRODepth {
		return ClassNRO
	}
	if f.h.RegionOf(id).NewlyAllocated {
		return ClassFYO
	}
	if now-f.h.LastAccess(id) <= wsWindow {
		return ClassWS
	}
	return ClassCold
}

// RunGrouping is RGS step 1 (§5.3.1): a full BFS copying GC that classifies
// every live object, groups the classes into typed regions, marks the
// resulting regions FGO, arms the BGC card table, and issues the madvise
// calls of step 2 (§5.3.2).
func (f *Fleet) RunGrouping(now time.Duration) gc.Result {
	h := f.h

	// Graceful degradation: grouping exists to steer pages toward the swap
	// device, and its AdviseCold writes would all fail while the device is
	// in an offline fault window. Skip the reorganisation, run the stock
	// full-heap collection instead, and leave the card table down so BGC
	// also degrades to major GCs until the next background transition
	// retries grouping. A device with no swap at all (TotalSlots == 0) does
	// NOT take this path: BGC's working-set reduction is still worthwhile
	// without a device to steer.
	if f.vm.Swap.TotalSlots() > 0 && !f.vm.Online() {
		f.swapFallbacks++
		res := gc.Major(h, nil)
		f.state = StateActive
		return res
	}

	res := gc.Result{Kind: gc.KindGrouping}
	gs := GroupingStats{}

	seeds := h.Roots()
	res.PauseSTW += gc.FlipPause + time.Duration(len(seeds))*gc.RootScanCPU

	// BFS trace recording per-object class.
	if cap(f.classes) < h.ObjectTableSize() {
		f.classes = make([]Class, h.ObjectTableSize())
	}
	f.classes = f.classes[:h.ObjectTableSize()]
	for i := range f.classes {
		f.classes[i] = ClassCold
	}

	h.BeginTrace()
	res.AddTrace(gc.Trace(h, seeds, gc.TraceOpts{
		BFS: true,
		OnVisit: func(id heap.ObjectID, depth int) {
			c := f.classify(id, depth, now)
			f.classes[id] = c
			size := int64(h.Size(id))
			switch c {
			case ClassNRO:
				gs.NRO++
				gs.NROBytes += size
			case ClassFYO:
				gs.FYO++
				gs.FYOBytes += size
			case ClassWS:
				gs.WS++
				gs.WSBytes += size
			default:
				gs.Cold++
				gs.ColdBytes += size
			}
		},
	}))

	// Evacuate everything into typed to-regions.
	var from []*heap.Region
	h.Regions(func(r *heap.Region) { from = append(from, r) })
	ev := h.NewEvacuator()
	gc.Evacuate(h, ev, &res, from, func(id heap.ObjectID) heap.RegionKind {
		switch f.classes[id] {
		case ClassNRO, ClassFYO:
			return heap.KindLaunch
		case ClassWS:
			return heap.KindWS
		default:
			return heap.KindCold
		}
	})

	// All surviving objects are now FGO by definition: the app is in the
	// background and everything predating this moment counts as foreground
	// allocated (§4.1). Mark their regions.
	f.launchRegions = f.launchRegions[:0]
	f.wsRegions = f.wsRegions[:0]
	f.coldRegions = f.coldRegions[:0]
	for _, r := range ev.ToRegions() {
		r.FGO = true
		switch r.Kind {
		case heap.KindLaunch:
			f.launchRegions = append(f.launchRegions, r)
			gs.LaunchRegions++
			gs.LaunchBytes += r.Used
		case heap.KindWS:
			f.wsRegions = append(f.wsRegions, r)
			gs.WSRegions++
		case heap.KindCold:
			f.coldRegions = append(f.coldRegions, r)
			gs.ColdRegions++
		}
	}

	res.PauseSTW += gc.FinalPause
	h.NoteGCComplete()

	// Arm BGC: fresh card table over the (now fully FGO) heap.
	f.card = cardtable.New(h.HeapBytes())
	f.state = StateActive

	// RGS step 2: steer the kernel.
	if !f.cfg.DisableColdAdvise {
		for _, r := range f.coldRegions {
			gs.AdviseIO += f.vm.AdviseCold(h.AS, r.Base, units.RegionSize)
		}
	}
	f.adviseHotLocked()

	f.lastGrouping = gs
	return res
}

// adviseHotLocked re-issues HOT_RUNTIME for launch regions.
func (f *Fleet) adviseHotLocked() {
	if f.cfg.DisableHotAdvice {
		return
	}
	for _, r := range f.launchRegions {
		if !r.Free() {
			f.vm.AdviseHot(f.h.AS, r.Base, units.RegionSize)
		}
	}
}

// RefreshAdvice is the periodic advice refresh while backgrounded.
func (f *Fleet) RefreshAdvice() {
	if f.state == StateActive {
		f.adviseHotLocked()
	}
}

// The §5.2 memory-leak fallback: once leakFallbackCycles consecutive BGC
// cycles each reclaim less than leakFallbackRatio of the background
// allocation volume, Fleet "resorts to the original Android method of
// using full tracing to clear garbage objects from the entire Java heap".
const (
	leakFallbackCycles = 4
	leakFallbackRatio  = 0.25
)

// RunBGC is the background-object GC (§5.2): trace only BGO, extending the
// roots with FGO objects whose cards are dirty; evacuate live BGO; free BGO
// regions. FGO pages are never touched except for the dirty-card scan.
//
// Per §5.2's memory-leak discussion, if several consecutive cycles reclaim
// almost nothing relative to what the background allocated, Fleet falls
// back to one full-heap tracing collection (and the FGO/BGO separation is
// rebuilt by the next grouping).
func (f *Fleet) RunBGC() gc.Result {
	h := f.h
	res := gc.Result{Kind: gc.KindBGC}
	if f.card == nil {
		// Grouping has not happened yet; nothing to restrict — fall back
		// to a plain major GC (worst case discussed in §5.2).
		return gc.Major(h, nil)
	}
	allocSinceGC := h.BytesSinceGC

	isBGO := func(id heap.ObjectID) bool { return !h.RegionOf(id).FGO }

	// Seeds: roots + dirty-card FGO, staged through the heap's reusable
	// seed buffer so the per-cycle append allocates nothing steady-state.
	seeds := gc.SeedBuf(h)
	res.PauseSTW += gc.FlipPause + time.Duration(len(seeds))*gc.RootScanCPU
	f.card.ScanDirty(true, func(start, size int64) {
		res.GCThreadCPU += gc.CardScanCPU
		if start >= h.AddressSpanBytes() {
			return
		}
		r := h.RegionAt(start)
		if r.Free() || !r.FGO {
			return
		}
		h.ForEachObjectOverlapping(r, start, size, func(id heap.ObjectID) {
			seeds = append(seeds, id)
		})
	})

	h.BeginTrace()
	res.AddTrace(gc.Trace(h, seeds, gc.TraceOpts{ShouldTrace: isBGO}))
	gc.SaveSeeds(h, seeds)

	// Evacuate live BGO out of BGO regions; FGO regions are untouched.
	var from []*heap.Region
	h.Regions(func(r *heap.Region) {
		if !r.FGO {
			from = append(from, r)
		}
	})
	gc.Evacuate(h, h.NewEvacuator(), &res, from, nil)

	res.PauseSTW += gc.FinalPause
	h.NoteGCComplete()

	// Leak detection: a BGC that keeps reclaiming almost none of the
	// background allocation volume indicates FGO-held garbage chains; run
	// the full-heap collection the paper prescribes.
	if allocSinceGC > 0 {
		if float64(res.BytesFreed) < leakFallbackRatio*float64(allocSinceGC) {
			f.lowYieldCycles++
		} else {
			f.lowYieldCycles = 0
		}
		if f.lowYieldCycles >= leakFallbackCycles {
			f.lowYieldCycles = 0
			f.fullFallbacks++
			full := gc.Major(h, nil)
			full.Kind = gc.KindBGC
			res.Add(full)
			// The full compaction dissolved the FGO regions; stand the
			// card table down until the next grouping rebuilds it.
			f.card = nil
			f.launchRegions, f.wsRegions, f.coldRegions = nil, nil, nil
		}
	}
	return res
}

// FullFallbacks reports how many §5.2 leak-fallback full collections ran.
func (f *Fleet) FullFallbacks() int { return f.fullFallbacks }

// SwapFallbacks reports how many groupings degraded to a plain major GC
// because the swap device was offline.
func (f *Fleet) SwapFallbacks() int { return f.swapFallbacks }

// Retire drops a dead app's per-object classes, card table and region
// sets, keeping the counters. Nothing may run on a retired Fleet again.
func (f *Fleet) Retire() {
	f.card, f.classes = nil, nil
	f.launchRegions, f.wsRegions, f.coldRegions = nil, nil, nil
}

// LaunchRegions returns the current launch regions (hot-launch critical).
func (f *Fleet) LaunchRegions() []*heap.Region { return f.launchRegions }

// ColdRegions returns the regions RGS pushed toward swap.
func (f *Fleet) ColdRegions() []*heap.Region { return f.coldRegions }

// WSRegions returns the background working-set regions.
func (f *Fleet) WSRegions() []*heap.Region { return f.wsRegions }
