package vmem

import (
	"errors"
	"testing"
	"time"

	"fleetsim/internal/mem"
	"fleetsim/internal/units"
)

// rig builds a Manager with dramPages of DRAM and swapPages of flash swap.
func rig(dramPages, swapPages int64) (*Manager, *mem.AddressSpace) {
	return rigWith(dramPages, testBackends[0].build(swapPages))
}

// rigWith builds a Manager with dramPages of DRAM in front of swap.
func rigWith(dramPages int64, swap SwapBackend) (*Manager, *mem.AddressSpace) {
	m := NewManager(mem.NewPhysical(dramPages*units.PageSize), swap)
	m.LowWatermark = 2
	m.HighWatermark = 4
	as := mem.NewAddressSpace("app")
	return m, as
}

// testBackends builds a flash device and a zram device (a pool and a
// backing partition of half the slots each) of swapPages nominal slots,
// for the manager tests that must hold on either backend.
var testBackends = []struct {
	name  string
	build func(swapPages int64) SwapBackend
}{
	{"flash", func(n int64) SwapBackend {
		return NewSwapDevice(SwapDeviceConfig{SizeBytes: n * units.PageSize, Profile: UFSFlashProfile()})
	}},
	{"zram", func(n int64) SwapBackend { return newTestZram(n/2, n-n/2, 1) }},
}

func touchPage(t *testing.T, m *Manager, as *mem.AddressSpace, idx int64) time.Duration {
	t.Helper()
	stall, err := m.TouchRange(as, idx*units.PageSize, 1, false)
	if err != nil {
		t.Fatalf("touch page %d: %v", idx, err)
	}
	return stall
}

func TestFirstTouchIsMinorFault(t *testing.T) {
	m, as := rig(16, 16)
	as.Reserve(16 * units.PageSize)
	stall := touchPage(t, m, as, 0)
	if stall != MinorFaultCost {
		t.Errorf("first touch stall = %v, want %v", stall, MinorFaultCost)
	}
	st := m.Stats()
	if st.MinorFaults != 1 || st.MajorFaults != 0 {
		t.Errorf("faults: %+v", st)
	}
	// Second touch is free.
	if stall := touchPage(t, m, as, 0); stall != 0 {
		t.Errorf("resident touch stall = %v", stall)
	}
}

func TestReclaimAndMajorFault(t *testing.T) {
	m, as := rig(8, 64)
	as.Reserve(64 * units.PageSize)
	// Fill DRAM well past the watermarks: kswapd keeps free >= low.
	for i := int64(0); i < 20; i++ {
		touchPage(t, m, as, i)
	}
	if m.Phys.FreeFrames() < m.LowWatermark {
		t.Errorf("kswapd failed: free=%d low=%d", m.Phys.FreeFrames(), m.LowWatermark)
	}
	st := m.Stats()
	if st.SwapOuts == 0 {
		t.Error("expected swap-outs under pressure")
	}
	// Touch a swapped page: must be a major fault with IO stall.
	var victim int64 = -1
	for i := int64(0); i < 20; i++ {
		if as.PageByIndex(i).State == mem.PageSwapped {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no swapped page found")
	}
	stall := touchPage(t, m, as, victim)
	perPage := UFSFlashProfile().ReadTime(units.PageSize)
	if stall < perPage {
		t.Errorf("major fault stall = %v, want >= %v", stall, perPage)
	}
	if m.Stats().MajorFaults == 0 {
		t.Error("major fault not counted")
	}
}

func TestLRUEvictsColdBeforeHotTouched(t *testing.T) {
	m, as := rig(10, 64)
	as.Reserve(64 * units.PageSize)
	// Touch pages 0..5, then re-touch 0..2 repeatedly so they are active.
	for i := int64(0); i < 6; i++ {
		touchPage(t, m, as, i)
	}
	for r := 0; r < 3; r++ {
		for i := int64(0); i < 3; i++ {
			touchPage(t, m, as, i)
		}
	}
	// Now flood with new pages to force eviction.
	for i := int64(10); i < 24; i++ {
		touchPage(t, m, as, i)
	}
	// The re-touched pages should have survived over 3,4,5.
	hotResident := 0
	for i := int64(0); i < 3; i++ {
		if as.PageByIndex(i).State == mem.PageResident {
			hotResident++
		}
	}
	coldResident := 0
	for i := int64(3); i < 6; i++ {
		if as.PageByIndex(i).State == mem.PageResident {
			coldResident++
		}
	}
	if hotResident < coldResident {
		t.Errorf("LRU kept cold pages over hot: hot=%d cold=%d", hotResident, coldResident)
	}
}

func TestAdviseColdSwapsOutImmediately(t *testing.T) {
	m, as := rig(32, 32)
	base := as.Reserve(8 * units.PageSize)
	m.TouchRange(as, base, 8*units.PageSize, true)
	if as.ResidentPages() != 8 {
		t.Fatalf("resident = %d", as.ResidentPages())
	}
	io := m.AdviseCold(as, base, 8*units.PageSize)
	if io == 0 {
		t.Error("AdviseCold should cost write IO")
	}
	if as.SwappedPages() != 8 || as.ResidentPages() != 0 {
		t.Errorf("after AdviseCold: resident=%d swapped=%d", as.ResidentPages(), as.SwappedPages())
	}
	if m.Stats().SwapOuts != 8 {
		t.Errorf("swap-outs = %d", m.Stats().SwapOuts)
	}
}

func TestAdviseHotProtectsFromReclaim(t *testing.T) {
	m, as := rig(10, 64)
	as.Reserve(64 * units.PageSize)
	// Make pages 0..3 resident and hot.
	m.TouchRange(as, 0, 4*units.PageSize, false)
	m.AdviseHot(as, 0, 4*units.PageSize)
	// Flood to force reclaim.
	for i := int64(10); i < 30; i++ {
		touchPage(t, m, as, i)
	}
	for i := int64(0); i < 4; i++ {
		if as.PageByIndex(i).State != mem.PageResident {
			t.Errorf("hot page %d was evicted", i)
		}
	}
}

func TestAdviseHotYieldsInEmergency(t *testing.T) {
	// DRAM 8 frames, swap large. Mark everything hot, then demand more
	// frames: the emergency path must still evict hot pages rather than
	// invoking pressure kills.
	m, as := rig(8, 64)
	as.Reserve(64 * units.PageSize)
	m.TouchRange(as, 0, 6*units.PageSize, false)
	m.AdviseHot(as, 0, 64*units.PageSize)
	for i := int64(10); i < 20; i++ {
		touchPage(t, m, as, i)
	}
	if m.Stats().PressureKills != 0 {
		t.Errorf("pressure kills with evictable (hot) pages present: %d", m.Stats().PressureKills)
	}
}

func TestPinnedNeverEvicted(t *testing.T) {
	m, as := rig(8, 64)
	as.Reserve(64 * units.PageSize)
	m.TouchRange(as, 0, 4*units.PageSize, true)
	m.Pin(as, 0, 4*units.PageSize)
	killed := false
	m.OnPressure = func(need int64) bool {
		killed = true
		// Free the pinned pages to resolve pressure (simulates killing
		// the owning app).
		m.Unpin(as, 0, 4*units.PageSize)
		m.ReleaseRange(as, 0, 4*units.PageSize)
		return true
	}
	// Fill the rest of DRAM; pinned pages must survive until pressure.
	for i := int64(10); i < 14; i++ {
		touchPage(t, m, as, i)
	}
	for i := int64(0); i < 4; i++ {
		if as.PageByIndex(i).State != mem.PageResident {
			t.Fatalf("pinned page %d evicted", i)
		}
	}
	// Exhaust swap so reclaim cannot help: swap has room, so instead keep
	// touching fresh pages; pinned pages still must not swap.
	for i := int64(14); i < 60; i++ {
		touchPage(t, m, as, i)
	}
	for i := int64(0); i < 4; i++ {
		if p := as.PageByIndex(i); p.State == mem.PageSwapped {
			t.Fatalf("pinned page %d swapped", i)
		}
	}
	_ = killed
}

func TestPressureCallbackOnSwapFull(t *testing.T) {
	m, as := rig(8, 4) // tiny swap
	as.Reserve(64 * units.PageSize)
	var kills int
	m.OnPressure = func(need int64) bool {
		kills++
		// Free the oldest 8 pages.
		start := int64(kills-1) * 8
		m.ReleaseRange(as, start*units.PageSize, 8*units.PageSize)
		return true
	}
	for i := int64(0); i < 30; i++ {
		touchPage(t, m, as, i)
	}
	if kills == 0 {
		t.Error("expected pressure kills when swap fills")
	}
}

func TestReleaseFreesSwapSlot(t *testing.T) {
	m, as := rig(32, 8)
	base := as.Reserve(4 * units.PageSize)
	m.TouchRange(as, base, 4*units.PageSize, true)
	m.AdviseCold(as, base, 4*units.PageSize)
	if m.Swap.UsedSlots() != 4 {
		t.Fatalf("used slots = %d", m.Swap.UsedSlots())
	}
	m.ReleaseRange(as, base, 4*units.PageSize)
	if m.Swap.UsedSlots() != 0 {
		t.Errorf("slots not discarded: %d", m.Swap.UsedSlots())
	}
	if as.FootprintBytes() != 0 {
		t.Errorf("footprint = %d", as.FootprintBytes())
	}
}

func TestSwapInFreesSlot(t *testing.T) {
	m, as := rig(32, 8)
	base := as.Reserve(units.PageSize)
	m.TouchRange(as, base, units.PageSize, true)
	m.AdviseCold(as, base, units.PageSize)
	if m.Swap.UsedSlots() != 1 {
		t.Fatal("slot not used")
	}
	m.TouchRange(as, base, units.PageSize, false)
	if m.Swap.UsedSlots() != 0 {
		t.Error("swap-in must free the slot")
	}
	if m.Stats().SwapIns != 1 {
		t.Errorf("swap-ins = %d", m.Stats().SwapIns)
	}
}

func TestResidentQuery(t *testing.T) {
	m, as := rig(32, 8)
	base := as.Reserve(2 * units.PageSize)
	if !m.Resident(as, base) {
		t.Error("untouched page counts as resident (no IO needed)")
	}
	m.TouchRange(as, base, units.PageSize, true)
	m.AdviseCold(as, base, units.PageSize)
	if m.Resident(as, base) {
		t.Error("swapped page reported resident")
	}
}

func TestSwapDeviceAccounting(t *testing.T) {
	prof := DeviceProfile{ReadBandwidth: 1e6, WriteBandwidth: 1e6, OpLatency: time.Millisecond}
	d := NewSwapDevice(SwapDeviceConfig{SizeBytes: 2 * units.PageSize, Profile: prof})
	if d.TotalSlots() != 2 {
		t.Fatalf("slots = %d", d.TotalSlots())
	}
	w, werr := d.WritePage(nil, FaultState{})
	if werr != nil {
		t.Fatalf("WritePage: %v", werr)
	}
	if w <= time.Millisecond {
		t.Errorf("write cost = %v", w)
	}
	r, rerr := d.ReadPage(nil, FaultState{}, false)
	if rerr != nil {
		t.Fatalf("ReadPage: %v", rerr)
	}
	if r <= time.Millisecond {
		t.Errorf("read cost = %v", r)
	}
	d.WritePage(nil, FaultState{})
	d.Discard(nil)
	if d.UsedSlots() != 0 {
		t.Errorf("used = %d", d.UsedSlots())
	}
}

func TestSwapDeviceFullReturnsErrSwapFull(t *testing.T) {
	prof := DeviceProfile{ReadBandwidth: 1e6, WriteBandwidth: 1e6}
	d := NewSwapDevice(SwapDeviceConfig{SizeBytes: units.PageSize, Profile: prof})
	if _, err := d.WritePage(nil, FaultState{}); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if _, err := d.WritePage(nil, FaultState{}); !errors.Is(err, ErrSwapFull) {
		t.Errorf("WritePage on full device = %v, want ErrSwapFull", err)
	}
	if d.UsedSlots() != 1 {
		t.Errorf("failed write changed accounting: used = %d", d.UsedSlots())
	}
}

func TestDefaultSwapConfigMatchesPaper(t *testing.T) {
	cfg := DefaultSwapConfig()
	if cfg.SizeBytes != 2*units.GiB {
		t.Errorf("swap size = %d", cfg.SizeBytes)
	}
	if cfg.Profile.ReadBandwidth != 20.3e6 {
		t.Errorf("read bw = %v", cfg.Profile.ReadBandwidth)
	}
	if cfg.Profile != UFSFlashProfile() {
		t.Errorf("default profile %+v is not the UFS flash preset", cfg.Profile)
	}
}

func TestDRAMCost(t *testing.T) {
	// One page at DRAM speed should be sub-microsecond.
	c := DRAMCost(units.PageSize)
	if c <= 0 || c > 10*time.Microsecond {
		t.Errorf("DRAMCost(page) = %v", c)
	}
}

func TestOfflineWindowWaitsWithBackoff(t *testing.T) {
	for _, b := range testBackends {
		t.Run(b.name, func(t *testing.T) {
			m, as := rigWith(32, b.build(8))
			base := as.Reserve(units.PageSize)
			m.TouchRange(as, base, units.PageSize, true)
			m.AdviseCold(as, base, units.PageSize)
			if as.SwappedPages() != 1 {
				t.Fatal("setup: page not swapped out")
			}

			window := 5 * time.Millisecond
			m.Faults = func() FaultState { return FaultState{OfflineFor: window} }
			stall, err := m.TouchRange(as, base, units.PageSize, false)
			if err != nil {
				t.Fatalf("swap-in across offline window: %v", err)
			}
			if stall < window {
				t.Errorf("stall %v shorter than the offline window %v", stall, window)
			}
			st := m.Stats()
			if st.SwapRetries == 0 {
				t.Error("no backoff retries counted")
			}
			if st.OfflineWait < window {
				t.Errorf("offline wait %v < window %v", st.OfflineWait, window)
			}
			if as.ResidentPages() != 1 {
				t.Error("page not resident after waiting the window out")
			}
		})
	}
}

func TestOfflineSkipsSwapOutAndEscalates(t *testing.T) {
	for _, b := range testBackends {
		t.Run(b.name, func(t *testing.T) {
			m, as := rigWith(8, b.build(64))
			as.Reserve(64 * units.PageSize)
			m.Faults = func() FaultState { return FaultState{OfflineFor: time.Second} }
			kills := 0
			m.OnPressure = func(need int64) bool {
				kills++
				start := int64(kills-1) * 8
				m.ReleaseRange(as, start*units.PageSize, 8*units.PageSize)
				return true
			}
			for i := int64(0); i < 30; i++ {
				touchPage(t, m, as, i)
			}
			if m.Swap.UsedSlots() != 0 {
				t.Errorf("pages written to an offline device: %d slots", m.Swap.UsedSlots())
			}
			if kills == 0 {
				t.Error("reclaim never escalated to lmkd while swap was offline")
			}
			// madvise(COLD) inside the window is refused and counted.
			if as.PageByIndex(29).State != mem.PageResident {
				t.Fatal("setup: last touched page not resident")
			}
			m.AdviseCold(as, 29*units.PageSize, units.PageSize)
			if m.Swap.UsedSlots() != 0 || m.Stats().SwapWriteFails == 0 {
				t.Errorf("AdviseCold in an offline window: %d slots used, %d write fails",
					m.Swap.UsedSlots(), m.Stats().SwapWriteFails)
			}
		})
	}
}

// TestFaultFactorsScaleBackendCosts pins how each backend prices a page
// under an injected FaultState: flash stretches its IO by LatencyFactor;
// a zram pool store books its compression CPU scaled by CPUFactor and
// returns that stretched by LatencyFactor; zram writeback books its flash
// IO stretched by LatencyFactor.
func TestFaultFactorsScaleBackendCosts(t *testing.T) {
	scaled := func(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }
	flashWrite := UFSFlashProfile().WriteTime(units.PageSize)

	d := NewSwapDevice(SwapDeviceConfig{SizeBytes: units.PageSize, Profile: UFSFlashProfile()})
	if got, _ := d.WritePage(nil, FaultState{LatencyFactor: 3}); got != scaled(flashWrite, 3) {
		t.Errorf("flash write under LatencyFactor 3 = %v, want 3 x %v", got, flashWrite)
	}

	// A one-page pool: the first compressible store fits, and within a few
	// more the pool runs out of room and writes earlier pages back to flash.
	z := newTestZram(1, 8, 1)
	as := mem.NewAddressSpace("cost")
	as.Reserve(64 * units.PageSize)
	var compressible []*mem.Page
	for i := int64(0); i < 64; i++ {
		if p := as.PageAt(i); z.csizeOf(p) <= incompressibleBytes {
			compressible = append(compressible, p)
		}
	}
	fs := FaultState{CPUFactor: 2, LatencyFactor: 3}
	compress := scaled(ZramDeviceProfile().WriteTime(units.PageSize), 2)
	got, err := z.WritePage(compressible[0], fs)
	if err != nil {
		t.Fatal(err)
	}
	if st := z.BackendStats(); st.StoredPages != 1 || st.CompressCPU != compress {
		t.Errorf("pool store booked %v compression CPU (%d stored), want 2 x %v",
			st.CompressCPU, st.StoredPages, ZramDeviceProfile().WriteTime(units.PageSize))
	}
	if got != scaled(compress, 3) {
		t.Errorf("pool store under CPUFactor 2, LatencyFactor 3 = %v, want %v", got, scaled(compress, 3))
	}
	for _, p := range compressible[1:] {
		if _, err := z.WritePage(p, FaultState{LatencyFactor: 3}); err != nil {
			t.Fatal(err)
		}
		if z.BackendStats().Writebacks > 0 {
			break
		}
	}
	st := z.BackendStats()
	if st.Writebacks == 0 {
		t.Fatal("setup: no writeback")
	}
	if want := time.Duration(st.Writebacks) * scaled(flashWrite, 3); st.WritebackIO != want {
		t.Errorf("%d writebacks booked %v of flash IO, want %v", st.Writebacks, st.WritebackIO, want)
	}
}

func TestAdviseColdFailsSoftWhenSwapFull(t *testing.T) {
	m, as := rig(32, 2) // two swap slots
	base := as.Reserve(8 * units.PageSize)
	m.TouchRange(as, base, 8*units.PageSize, true)
	m.AdviseCold(as, base, 8*units.PageSize)
	if m.Swap.UsedSlots() != 2 {
		t.Fatalf("used slots = %d, want the device full", m.Swap.UsedSlots())
	}
	if as.ResidentPages() != 6 || as.SwappedPages() != 2 {
		t.Errorf("after full device: resident=%d swapped=%d, want 6/2",
			as.ResidentPages(), as.SwappedPages())
	}
	if m.Stats().SwapWriteFails == 0 {
		t.Error("failed swap-outs not counted")
	}
}
