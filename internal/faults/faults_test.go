package faults_test

import (
	"testing"
	"time"

	"fleetsim/internal/core"
	"fleetsim/internal/faults"
	"fleetsim/internal/gc"
	"fleetsim/internal/heap"
	"fleetsim/internal/mem"
	"fleetsim/internal/simclock"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
)

func newRig(dramPages, swapPages int64) (*vmem.Manager, *heap.Heap) {
	phys := mem.NewPhysical(dramPages * units.PageSize)
	cfg := vmem.DefaultSwapConfig()
	cfg.SizeBytes = swapPages * units.PageSize
	vm := vmem.NewManager(phys, vmem.NewSwapDevice(cfg))
	h := heap.New(mem.NewAddressSpace("faults-test"), vm)
	return vm, h
}

// buildGraph allocates a small rooted object graph.
func buildGraph(h *heap.Heap, n int) heap.ObjectID {
	root, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	h.AddRoot(root)
	prev := root
	for i := 0; i < n; i++ {
		id, _, _ := h.Alloc(256, heap.EpochForeground, 0)
		h.AddRef(prev, id, 0)
		prev = id
	}
	return root
}

// TestFleetFallsBackWhenSwapOffline is the acceptance scenario: an
// injected device-offline window at grouping time must degrade Fleet to
// the stock major GC (and leave BGC degraded too) instead of failing.
func TestFleetFallsBackWhenSwapOffline(t *testing.T) {
	vm, h := newRig(1024, 512)
	buildGraph(h, 50)

	offline := false
	vm.Faults = func() vmem.FaultState {
		if offline {
			return vmem.FaultState{OfflineFor: time.Second}
		}
		return vmem.FaultState{}
	}

	f := core.New(core.DefaultConfig(), h, vm)
	f.OnBackground()
	offline = true
	res := f.RunGrouping(10 * time.Second)
	if res.Kind != gc.KindMajor {
		t.Errorf("grouping under offline swap ran %q, want the major-GC fallback", res.Kind)
	}
	if f.SwapFallbacks() != 1 {
		t.Errorf("SwapFallbacks = %d, want 1", f.SwapFallbacks())
	}
	if f.CardTable() != nil {
		t.Error("fallback must not arm the BGC card table")
	}
	// With no card table, BGC degrades to the default full collection.
	bgc := f.RunBGC()
	if bgc.Kind != gc.KindMajor {
		t.Errorf("BGC after skipped grouping ran %q, want major", bgc.Kind)
	}

	// Device back online: the next grouping proceeds normally.
	offline = false
	res = f.RunGrouping(30 * time.Second)
	if res.Kind != gc.KindGrouping {
		t.Errorf("grouping with the device back = %q, want grouping", res.Kind)
	}
	if f.CardTable() == nil {
		t.Error("recovered grouping must arm BGC")
	}
	if f.SwapFallbacks() != 1 {
		t.Errorf("SwapFallbacks after recovery = %d, want still 1", f.SwapFallbacks())
	}
}

// TestFleetGroupsNormallyWithoutSwapDevice: a device with no swap at all
// must NOT take the offline fallback — BGC is still worthwhile there.
func TestFleetGroupsNormallyWithoutSwapDevice(t *testing.T) {
	phys := mem.NewPhysical(1024 * units.PageSize)
	cfg := vmem.DefaultSwapConfig()
	cfg.SizeBytes = 0
	vm := vmem.NewManager(phys, vmem.NewSwapDevice(cfg))
	h := heap.New(mem.NewAddressSpace("noswap"), vm)
	buildGraph(h, 50)

	f := core.New(core.DefaultConfig(), h, vm)
	f.OnBackground()
	res := f.RunGrouping(10 * time.Second)
	if res.Kind != gc.KindGrouping {
		t.Errorf("grouping without swap = %q, want grouping", res.Kind)
	}
	if f.SwapFallbacks() != 0 {
		t.Errorf("SwapFallbacks = %d, want 0", f.SwapFallbacks())
	}
}

// TestInjectorDeterminism: the same (profile, seed) pair must produce the
// same event history, independent of unrelated load on the clock.
func TestInjectorDeterminism(t *testing.T) {
	run := func() faults.Stats {
		vm, _ := newRig(256, 256)
		clock := simclock.New()
		inj := faults.NewInjector(faults.SwapStress(), 42, clock, vm)
		inj.Start()
		clock.RunUntil(5 * time.Minute)
		return inj.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.StallWindows == 0 || a.OfflineWindows == 0 {
		t.Errorf("profile injected nothing in 5 minutes: %+v", a)
	}

	vm, _ := newRig(256, 256)
	clock := simclock.New()
	inj := faults.NewInjector(faults.SwapStress(), 43, clock, vm)
	inj.Start()
	clock.RunUntil(5 * time.Minute)
	if inj.Stats() == a {
		t.Error("different seeds produced identical histories")
	}
}

// TestInjectorWindowsReachDevice: injected windows must be visible through
// the swap device's fault-state surface while open, and close on their own.
func TestInjectorWindowsReachDevice(t *testing.T) {
	vm, _ := newRig(256, 256)
	clock := simclock.New()
	prof := faults.Profile{
		Name:            "offline-only",
		OfflineMTBF:     10 * time.Second,
		OfflineDuration: time.Second,
	}
	inj := faults.NewInjector(prof, 7, clock, vm)
	inj.Start()

	sawOffline := false
	for i := 0; i < 600; i++ {
		clock.RunUntil(clock.Now() + 100*time.Millisecond)
		if !vm.Online() {
			sawOffline = true
			break
		}
	}
	if !sawOffline {
		t.Fatal("no offline window observed in 60s with a 10s MTBF")
	}
	// The window closes by itself once the clock passes it.
	clock.RunUntil(clock.Now() + 2*time.Second)
	if !vm.Online() {
		t.Error("offline window never closed")
	}
}

// TestSqueezeReservesAndReleases: the slot-squeeze stream must take
// capacity away and give it back.
func TestSqueezeReservesAndReleases(t *testing.T) {
	vm, _ := newRig(256, 100)
	clock := simclock.New()
	prof := faults.Profile{
		Name:            "squeeze-only",
		SqueezeMTBF:     5 * time.Second,
		SqueezeDuration: 2 * time.Second,
		SqueezeFrac:     0.9,
	}
	inj := faults.NewInjector(prof, 7, clock, vm)
	inj.Start()

	sawSqueeze := false
	for i := 0; i < 600 && !sawSqueeze; i++ {
		clock.RunUntil(clock.Now() + 100*time.Millisecond)
		if vm.Swap.ReservedSlots() > 0 {
			sawSqueeze = true
		}
	}
	if !sawSqueeze {
		t.Fatal("no squeeze observed in 60s with a 5s MTBF")
	}
	clock.RunUntil(clock.Now() + 3*time.Second)
	if vm.Swap.ReservedSlots() != 0 {
		t.Errorf("squeeze never released: %d slots still reserved", vm.Swap.ReservedSlots())
	}
	if inj.Stats().Squeezes == 0 {
		t.Error("squeeze counter not advanced")
	}
}

// TestCheckCleanOnHealthyState: a consistent system produces no findings.
func TestCheckCleanOnHealthyState(t *testing.T) {
	vm, h := newRig(1024, 512)
	buildGraph(h, 100)
	if v := faults.Check(vm, []*mem.AddressSpace{h.AS}, []*heap.Heap{h}); len(v) != 0 {
		t.Errorf("healthy system reported violations: %v", v)
	}
}

// TestCheckDetectsPlantedCorruption: deliberately desynchronised state in
// each layer must be caught.
func TestCheckDetectsPlantedCorruption(t *testing.T) {
	vm, h := newRig(1024, 512)
	buildGraph(h, 100)

	// Page-table corruption: flip a resident page to swapped behind the
	// accountants' backs.
	var victim *mem.Page
	h.AS.ForEachPage(func(p *mem.Page) {
		if victim == nil && p.State == mem.PageResident {
			victim = p
		}
	})
	if victim == nil {
		t.Fatal("no resident page to corrupt")
	}
	victim.State = mem.PageSwapped
	if v := faults.Check(vm, []*mem.AddressSpace{h.AS}, []*heap.Heap{h}); len(v) == 0 {
		t.Error("planted page-state corruption not detected")
	}
	victim.State = mem.PageResident

	// Heap corruption: roll a region's bump pointer back over a live
	// object, leaving the object outside its region's used span.
	var id heap.ObjectID
	for i := 1; i < h.ObjectTableSize(); i++ {
		if h.Live(heap.ObjectID(i)) {
			id = heap.ObjectID(i)
			break
		}
	}
	r := h.RegionOf(id)
	saved := r.Used
	r.Used = h.Addr(id) - r.Base
	if v := faults.Check(vm, []*mem.AddressSpace{h.AS}, []*heap.Heap{h}); len(v) == 0 {
		t.Error("planted object-placement corruption not detected")
	}
	r.Used = saved
	if v := faults.Check(vm, []*mem.AddressSpace{h.AS}, []*heap.Heap{h}); len(v) != 0 {
		t.Errorf("restored system still reports violations: %v", v)
	}
}
