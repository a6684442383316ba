package apps

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"fleetsim/internal/gc"
	"fleetsim/internal/heap"
	"fleetsim/internal/mem"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
	"fleetsim/internal/xrand"
)

func newVM() *vmem.Manager {
	phys := mem.NewPhysical(256 * units.MiB)
	return vmem.NewManager(phys, vmem.NewSwapDevice(vmem.DefaultSwapConfig()))
}

func buildApp(t *testing.T, p Profile) *App {
	t.Helper()
	a := NewApp(p, xrand.New(7), newVM())
	a.BuildInitial(0)
	return a
}

func twitter() Profile { return *ProfileByName("Twitter", 32) }

func TestProfilesComplete(t *testing.T) {
	profiles := CommercialProfiles(32)
	if len(profiles) != 18 {
		t.Fatalf("Table 3 should have 18 apps, got %d", len(profiles))
	}
	cats := map[string]int{}
	for _, p := range profiles {
		cats[p.Category]++
		if p.JavaHeapBytes <= 0 || p.JavaHeapFrac <= 0 || p.JavaHeapFrac >= 1 {
			t.Errorf("%s: bad heap config", p.Name)
		}
		if p.HotLaunchCPU <= 0 || p.ColdLaunchCPU <= p.HotLaunchCPU {
			t.Errorf("%s: launch CPU costs inconsistent", p.Name)
		}
		if p.NativeBytes() <= 0 {
			t.Errorf("%s: no native memory", p.Name)
		}
	}
	for _, c := range []string{"communication", "multimedia", "tools", "games"} {
		if cats[c] == 0 {
			t.Errorf("category %q missing", c)
		}
	}
}

func TestProfileByName(t *testing.T) {
	if ProfileByName("Twitter", 32) == nil {
		t.Error("Twitter missing")
	}
	if ProfileByName("NotAnApp", 32) != nil {
		t.Error("unknown app should be nil")
	}
}

func TestJavaFracArithmetic(t *testing.T) {
	p := twitter()
	total := p.TotalBytes()
	frac := float64(p.JavaHeapBytes) / float64(total)
	if frac < p.JavaHeapFrac-0.02 || frac > p.JavaHeapFrac+0.02 {
		t.Errorf("java fraction %v != profile %v", frac, p.JavaHeapFrac)
	}
}

func TestScaleDividesSizes(t *testing.T) {
	full := ProfileByName("Twitter", 1)
	scaled := ProfileByName("Twitter", 32)
	if scaled.JavaHeapBytes*32 != full.JavaHeapBytes {
		t.Errorf("scaling wrong: %d vs %d", scaled.JavaHeapBytes, full.JavaHeapBytes)
	}
	// CPU costs must NOT scale (they are device-time, not memory).
	if scaled.HotLaunchCPU != full.HotLaunchCPU {
		t.Error("launch CPU must be scale-invariant")
	}
}

func TestSyntheticProfileFixedSizes(t *testing.T) {
	p := SyntheticProfile("s", 512, 8*units.MiB)
	r := xrand.New(1)
	for i := 0; i < 100; i++ {
		if s := p.Sizes.Sample(r); s != 512 {
			t.Fatalf("synthetic size = %d", s)
		}
	}
}

func TestLogNormalSizeClamps(t *testing.T) {
	d := LogNormalSize{Mu: 3.9, Sigma: 1.1, Min: 16, Max: 1024}
	r := xrand.New(3)
	f := func(uint8) bool {
		s := d.Sample(r)
		return s >= 16 && s <= 1024
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuildInitialReachesSteadyState(t *testing.T) {
	p := twitter()
	a := buildApp(t, p)
	if a.DataBytes() < p.JavaHeapBytes {
		t.Errorf("data %d below target %d", a.DataBytes(), p.JavaHeapBytes)
	}
	if a.H.LiveBytes() < a.DataBytes() {
		t.Error("heap live below tracked data")
	}
	if a.Root() == heap.NilObject {
		t.Error("no root")
	}
	if len(a.Views()) == 0 {
		t.Error("no views")
	}
	// NRO structure should be ~10% of the heap.
	var nro int64
	for _, v := range a.Views() {
		nro += int64(a.H.Object(v).Size)
	}
	frac := float64(nro) / float64(a.H.LiveBytes())
	if frac < 0.03 || frac > 0.3 {
		t.Errorf("view share = %.2f, want ~0.1", frac)
	}
	// Native segment mapped.
	if a.NativeAS.FootprintBytes() == 0 {
		t.Error("native memory untouched")
	}
}

func TestSizeDistMean(t *testing.T) {
	if got := FixedSize(512).Mean(); got != 512 {
		t.Errorf("FixedSize(512).Mean() = %v", got)
	}
	// exp(3.9 + 1.1²/2): the unclamped lognormal mean.
	if got := DefaultCommercialSizes().Mean(); got < 90.4 || got > 90.6 {
		t.Errorf("commercial mean = %v, want ≈ 90.5", got)
	}
}

// TestBuildReserveCoversBuild checks that BuildInitial reserves enough:
// the build creates no more objects, edge-arena slots or chains than
// buildReserve asked for, for every commercial profile at scales 8, 32
// and 128 and for the fixed-size synthetic apps, each on seeds 1–10. The
// bare estimate JavaHeapBytes/Mean() falls short on 156 of the 540
// commercial builds, so this test pins the margin.
func TestBuildReserveCoversBuild(t *testing.T) {
	var profiles []Profile
	for _, scale := range []int64{8, 32, 128} {
		profiles = append(profiles, CommercialProfiles(scale)...)
		for _, size := range []int32{512, 2048} {
			profiles = append(profiles, SyntheticProfile("synthetic", size, 180*units.MiB/scale))
		}
	}
	for _, p := range profiles {
		objects, edges, chains := buildReserve(&p)
		for seed := uint64(1); seed <= 10; seed++ {
			a := NewApp(p, xrand.New(seed), newVM())
			if _, err := a.BuildInitial(0); err != nil {
				t.Fatalf("%s (%d B heap) seed %d: %v", p.Name, p.JavaHeapBytes, seed, err)
			}
			gotObjects := a.H.ObjectTableSize() - 1 // slot 0 is NilObject
			gotEdges := len(a.H.SoAView().Edges)
			if gotObjects > objects || gotEdges > edges || len(a.chains) > chains {
				t.Errorf("%s (%d B heap) seed %d: built %d objects, %d edge slots, %d chains; reserved %d, %d, %d",
					p.Name, p.JavaHeapBytes, seed, gotObjects, gotEdges, len(a.chains), objects, edges, chains)
			}
		}
	}
}

func TestForegroundTickKeepsDataSteady(t *testing.T) {
	p := twitter()
	a := buildApp(t, p)
	for i := 0; i < 100; i++ {
		a.ForegroundTick(time.Duration(i)*100*time.Millisecond, 100*time.Millisecond)
	}
	// Reachable data stays near target despite churn.
	ratio := float64(a.DataBytes()) / float64(p.JavaHeapBytes)
	if ratio < 0.8 || ratio > 1.4 {
		t.Errorf("data drifted to %.2fx of target", ratio)
	}
	// Allocation happened (heap stats grew).
	if a.H.Stats().Allocated < 1000 {
		t.Errorf("too few allocations: %d", a.H.Stats().Allocated)
	}
}

func TestForegroundChurnCreatesGarbage(t *testing.T) {
	p := twitter()
	a := buildApp(t, p)
	liveAfterBuild := a.H.LiveBytes()
	for i := 0; i < 50; i++ {
		a.ForegroundTick(time.Duration(i)*100*time.Millisecond, 100*time.Millisecond)
	}
	// LiveBytes counts uncollected garbage, so it should exceed the
	// reachable data noticeably.
	if a.H.LiveBytes() <= liveAfterBuild {
		t.Error("no garbage accumulated?")
	}
	if a.H.LiveBytes() <= a.DataBytes() {
		t.Error("heap-live should exceed reachable data before a GC")
	}
}

func TestBackgroundTickAllocatesBGO(t *testing.T) {
	p := twitter()
	a := buildApp(t, p)
	a.EnterBackground()
	before := a.H.Stats().Allocated
	for i := 0; i < 30; i++ {
		a.BackgroundTick(time.Second+time.Duration(i)*time.Second, time.Second)
	}
	if a.H.Stats().Allocated == before {
		t.Error("background allocated nothing")
	}
	// Background allocations must be tagged EpochBackground.
	found := false
	for id := heap.ObjectID(1); int(id) < a.H.ObjectTableSize(); id++ {
		o := a.H.Object(id)
		if o.Live() && o.Epoch == heap.EpochBackground {
			found = true
			break
		}
	}
	if !found {
		t.Error("no BGO found")
	}
}

func TestLaunchSetComposition(t *testing.T) {
	p := twitter()
	a := buildApp(t, p)
	for i := 0; i < 50; i++ {
		a.ForegroundTick(time.Duration(i)*100*time.Millisecond, 100*time.Millisecond)
	}
	set := a.LaunchSet()
	if len(set) == 0 {
		t.Fatal("empty launch set")
	}
	want := int(float64(a.H.LiveObjects()) * p.LaunchAccessFrac)
	if len(set) < want/2 || len(set) > want*2 {
		t.Errorf("launch set size %d, want ≈ %d", len(set), want)
	}
	for _, id := range set {
		if !a.H.Object(id).Live() {
			t.Fatal("dead object in launch set")
		}
	}
}

func TestHotLaunchAccessReturnsStallWhenSwapped(t *testing.T) {
	p := twitter()
	vm := newVM()
	a := NewApp(p, xrand.New(7), vm)
	a.BuildInitial(0)
	for i := 0; i < 30; i++ {
		a.ForegroundTick(time.Duration(i)*100*time.Millisecond, 100*time.Millisecond)
	}
	// Swap the whole heap out, then hot-launch: must stall on IO.
	vm.AdviseCold(a.H.AS, 0, a.H.HeapBytes())
	stall, _ := a.HotLaunchAccess(10 * time.Second)
	if stall <= 0 {
		t.Error("no stall despite swapped heap")
	}
	// Resident heap: no stall.
	stall2, _ := a.HotLaunchAccess(11 * time.Second)
	if stall2 >= stall {
		t.Errorf("second (resident) launch stall %v not below first %v", stall2, stall)
	}
}

func TestLaunchAllocBurst(t *testing.T) {
	p := twitter()
	a := buildApp(t, p)
	before := a.H.Stats().AllocatedBytes
	a.LaunchAllocBurst(time.Second)
	grew := a.H.Stats().AllocatedBytes - before
	if grew < p.LaunchAllocBytes {
		t.Errorf("burst allocated %d, want ≥ %d", grew, p.LaunchAllocBytes)
	}
}

func TestReleaseAllFreesEverything(t *testing.T) {
	p := twitter()
	a := buildApp(t, p)
	a.ReleaseAll()
	if a.FootprintBytes() != 0 {
		t.Errorf("footprint after release = %d", a.FootprintBytes())
	}
}

func TestRetireDropsPools(t *testing.T) {
	a := buildApp(t, twitter())
	a.ForegroundTick(time.Second, 100*time.Millisecond)
	a.EnterBackground()
	a.ReleaseAll()
	if tables := a.Retire(); tables.Cap() == 0 {
		t.Error("Retire handed on no tables")
	}
	if a.R != nil || a.OnAlloc != nil || a.activities != nil || a.views != nil || a.chains != nil ||
		a.recentNear != nil || a.recentDeep != nil || a.bgWS != nil {
		t.Error("retired app keeps its random stream, hook or pools")
	}
	if a.H.ObjectTableSize() != 0 || a.Name != "Twitter" {
		t.Errorf("retired app %q keeps an object table of %d entries", a.Name, a.H.ObjectTableSize())
	}
}

func TestOnAllocHookFires(t *testing.T) {
	p := SyntheticProfile("s", 512, units.MiB)
	a := NewApp(p, xrand.New(7), newVM())
	var hooked int
	a.OnAlloc = func(id heap.ObjectID) { hooked++ }
	a.BuildInitial(0)
	if hooked == 0 {
		t.Error("OnAlloc never fired")
	}
	if uint64(hooked) != a.H.Stats().Allocated {
		t.Errorf("hook fired %d times for %d allocations", hooked, a.H.Stats().Allocated)
	}
}

func TestDeterministicWorkload(t *testing.T) {
	run := func() (uint64, int64) {
		a := NewApp(twitter(), xrand.New(42), newVM())
		a.BuildInitial(0)
		for i := 0; i < 20; i++ {
			a.ForegroundTick(time.Duration(i)*100*time.Millisecond, 100*time.Millisecond)
		}
		return a.H.Stats().Allocated, a.H.LiveBytes()
	}
	a1, l1 := run()
	a2, l2 := run()
	if a1 != a2 || l1 != l2 {
		t.Errorf("workload not deterministic: (%d,%d) vs (%d,%d)", a1, l1, a2, l2)
	}
}

func TestDefaultLaunchMixSumsBelowOne(t *testing.T) {
	m := DefaultLaunchMix()
	sum := m.NearRootOnly + m.YoungOnly + m.Both
	if sum <= 0.5 || sum >= 1.0 {
		t.Errorf("mix sum = %v, want in (0.5,1)", sum)
	}
	// Paper's targets: NRO ≈ 50%, FYO ≈ 40%, union ≈ 68%.
	if nro := m.NearRootOnly + m.Both; nro < 0.45 || nro > 0.55 {
		t.Errorf("NRO share = %v", nro)
	}
	if fyo := m.YoungOnly + m.Both; fyo < 0.35 || fyo > 0.45 {
		t.Errorf("FYO share = %v", fyo)
	}
}

// TestChainIsPointerFree pins a chain at 36 bytes with its ids inline: a
// chain that held a slice would cost a Go allocation per chain and put
// the chain list back under the Go collector's scan.
func TestChainIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(chain{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		ft := f.Type
		if ft.Kind() == reflect.Array {
			ft = ft.Elem()
		}
		if ft.Kind() != reflect.Int32 {
			t.Errorf("chain.%s is a %s, want int32 fields and arrays of them", f.Name, f.Type)
		}
	}
	if got := unsafe.Sizeof(chain{}); got != 36 {
		t.Errorf("unsafe.Sizeof(chain{}) = %d, want 36", got)
	}
}

// TestChainSlotsMatchViewRefs drives foreground sessions, background
// spells and collections, and after each requires every live chain's
// (view, slot) to be unique and the view's reference in that slot to be
// the chain's head. nextSlot derives a view's next slot from its
// reference count, so a write that shrank a view's references or
// overwrote a chain's slot would silently hand two chains one slot; this
// catches it.
func TestChainSlotsMatchViewRefs(t *testing.T) {
	a := buildApp(t, twitter())
	now := time.Duration(0)
	check := func(phase string) {
		t.Helper()
		type slotKey struct {
			view heap.ObjectID
			slot int32
		}
		seen := make(map[slotKey]bool, len(a.chains))
		for i := range a.chains {
			c := &a.chains[i]
			k := slotKey{c.view, c.slot}
			if seen[k] {
				t.Fatalf("%s at %v: two chains share view %d slot %d", phase, now, c.view, c.slot)
			}
			seen[k] = true
			ids := c.objects()
			if len(ids) < 1 || len(ids) > maxChainLen {
				t.Fatalf("%s at %v: chain under view %d has %d objects", phase, now, c.view, len(ids))
			}
			refs := a.H.Refs(c.view)
			if int(c.slot) >= len(refs) || refs[c.slot] != ids[0] {
				t.Fatalf("%s at %v: view %d slot %d does not hold chain head %d (refs %v)",
					phase, now, c.view, c.slot, ids[0], refs)
			}
			// Each link is live and referenced by the one before it.
			for j, id := range ids {
				if !a.H.Live(id) || (j > 0 && !slices.Contains(a.H.Refs(ids[j-1]), id)) {
					t.Fatalf("%s at %v: chain under view %d broken at link %d (%v)", phase, now, c.view, j, ids)
				}
			}
		}
	}
	check("build")
	const tick = 100 * time.Millisecond
	for session := 0; session < 6; session++ {
		for i := 0; i < 40; i++ {
			a.ForegroundTick(now, tick)
			now += tick
		}
		check("foreground")
		gc.Major(a.H, nil)
		check("major")
		a.EnterBackground()
		for i := 0; i < 20; i++ {
			a.BackgroundTick(now, time.Second)
			now += time.Second
		}
		check("background")
		a.LaunchAllocBurst(now)
		check("launch burst")
	}
}
