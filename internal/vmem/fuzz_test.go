package vmem

import (
	"testing"
	"time"

	"fleetsim/internal/mem"
	"fleetsim/internal/units"
	"fleetsim/internal/xrand"
)

// vmInvariants checks the VM layer's conservation laws:
//  1. frames used by Physical equals the number of resident pages;
//  2. swap slots used equals the number of swapped pages;
//  3. every resident, non-released page is on exactly one LRU list
//     (accounted by the list counters);
//  4. per-space resident/swapped counters match a page walk.
func vmInvariants(t *testing.T, m *Manager, spaces []*mem.AddressSpace) {
	t.Helper()
	var resident, swapped, onLRU int64
	for _, as := range spaces {
		var spResident, spSwapped int64
		as.ForEachPage(func(p *mem.Page) {
			switch p.State {
			case mem.PageResident:
				resident++
				spResident++
				if p.OnLRU {
					onLRU++
				}
			case mem.PageSwapped:
				swapped++
				spSwapped++
				if p.OnLRU {
					t.Fatalf("swapped page %d still on LRU", p.Index)
				}
			default:
				if p.OnLRU {
					t.Fatalf("unmapped page %d on LRU", p.Index)
				}
			}
		})
		if spResident != as.ResidentPages() || spSwapped != as.SwappedPages() {
			t.Fatalf("%s: counters (%d,%d) vs walk (%d,%d)",
				as.Owner, as.ResidentPages(), as.SwappedPages(), spResident, spSwapped)
		}
	}
	if resident != m.Phys.UsedFrames() {
		t.Fatalf("frames used %d but %d resident pages", m.Phys.UsedFrames(), resident)
	}
	if swapped != m.Swap.UsedSlots() {
		t.Fatalf("slots used %d but %d swapped pages", m.Swap.UsedSlots(), swapped)
	}
	a, i := m.LRUSizes()
	if a+i != onLRU {
		t.Fatalf("LRU lists hold %d but %d pages are flagged OnLRU", a+i, onLRU)
	}
}

// TestVMRandomOps hammers the manager with random touches, advice, pins,
// prefetches and releases across several address spaces under real
// pressure (small DRAM), checking conservation laws as it goes.
func TestVMRandomOps(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		r := xrand.New(seed)
		phys := mem.NewPhysical(64 * units.PageSize)
		swapCfg := DefaultSwapConfig()
		swapCfg.SizeBytes = 128 * units.PageSize
		m := NewManager(phys, NewSwapDevice(swapCfg))
		now := time.Duration(0)
		m.Now = func() time.Duration { return now }

		var spaces []*mem.AddressSpace
		const perSpace = 64
		for i := 0; i < 3; i++ {
			as := mem.NewAddressSpace(string(rune('A' + i)))
			as.Reserve(perSpace * units.PageSize)
			spaces = append(spaces, as)
		}
		m.OnPressure = func(need int64) bool {
			// Free a random span, like lmkd reclaiming an app.
			as := spaces[r.Intn(len(spaces))]
			m.Unpin(as, 0, perSpace*units.PageSize)
			m.ReleaseRange(as, 0, perSpace*units.PageSize)
			return true
		}

		randRange := func() (as *mem.AddressSpace, addr, size int64) {
			as = spaces[r.Intn(len(spaces))]
			addr = r.Int63n(perSpace-1) * units.PageSize
			size = (1 + r.Int63n(8)) * units.PageSize
			if addr+size > perSpace*units.PageSize {
				size = perSpace*units.PageSize - addr
			}
			return
		}

		for step := 0; step < 5000; step++ {
			now += time.Millisecond
			as, addr, size := randRange()
			switch r.Intn(12) {
			case 0, 1, 2, 3, 4, 5:
				m.TouchRange(as, addr, size, r.Bool(0.5))
			case 6:
				m.AdviseCold(as, addr, size)
			case 7:
				m.AdviseHot(as, addr, size)
			case 8:
				m.AdviseNormal(as, addr, size)
			case 9:
				if r.Bool(0.3) {
					m.Pin(as, addr, size)
				} else {
					m.Unpin(as, addr, size)
				}
			case 10:
				m.Prefetch(as, addr, size)
			case 11:
				m.ReleaseRange(as, addr, size)
			}
			if step%500 == 499 {
				vmInvariants(t, m, spaces)
			}
		}
		vmInvariants(t, m, spaces)
		st := m.Stats()
		if st.SwapIns == 0 || st.SwapOuts == 0 {
			t.Errorf("seed %d: no swap traffic (ins=%d outs=%d) — pressure too low to exercise paths",
				seed, st.SwapIns, st.SwapOuts)
		}
	}
}

// FuzzVMOps drives the manager with an arbitrary op tape — touches,
// advice, prefetches, releases, plus injected device faults (latency
// stalls, offline windows, compression-CPU spikes, slot squeezes) — and
// requires the backend's own accounting (SwapBackend.Check) to hold after
// every op and the conservation laws to hold and no corruption to latch at
// the end. The tape's first byte picks the backend (even: flash, odd: zram).
// Every error return is legal under faults; what must never happen is
// inconsistent accounting.
func FuzzVMOps(f *testing.F) {
	for _, backend := range []byte{0x00, 0x01} {
		f.Add(append([]byte{backend}, 0x00, 0x01, 0x05, 0x21, 0x10, 0x03))
		f.Add(append([]byte{backend}, 0x07, 0x08, 0x04, 0x63, 0x05, 0x02, 0x01, 0x30, 0x07, 0x08, 0x09, 0x01))
		f.Add(append([]byte{backend}, 0x08, 0x02, 0x02, 0x01, 0x20, 0x04, 0x09, 0x06, 0x20, 0x03, 0x11, 0x05))
		// Fill DRAM past its 32 frames under a CPU spike, then swap back
		// in, advise and prefetch under a stall, and touch across an
		// offline window.
		f.Add(append([]byte{backend}, 0x0a, 0x00, 0x03,
			0x00, 0x00, 0x07, 0x00, 0x08, 0x07, 0x00, 0x10, 0x07,
			0x00, 0x18, 0x07, 0x00, 0x20, 0x07, 0x00, 0x28, 0x07,
			0x07, 0x00, 0x02, 0x03, 0x28, 0x07, 0x00, 0x00, 0x07, 0x05, 0x28, 0x07,
			0x0a, 0x00, 0x00, 0x08, 0x00, 0x04, 0x00, 0x08, 0x07, 0x03, 0x00, 0x03))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		phys := mem.NewPhysical(32 * units.PageSize)
		var swap SwapBackend
		if data[0]%2 == 0 {
			cfg := DefaultSwapConfig()
			cfg.SizeBytes = 64 * units.PageSize
			swap = NewSwapDevice(cfg)
		} else {
			swap = newTestZram(4, 60, 1) // a small pool, so stores write back
		}
		data = data[1:]
		m := NewManager(phys, swap)
		now := time.Duration(0)
		m.Now = func() time.Duration { return now }

		var fault FaultState
		m.Faults = func() FaultState { return fault }

		const pages = 48
		as := mem.NewAddressSpace("fuzz")
		as.Reserve(pages * units.PageSize)
		m.OnPressure = func(need int64) bool {
			m.ReleaseRange(as, 0, pages*units.PageSize)
			return true
		}

		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i], int64(data[i+1]), int64(data[i+2])
			addr := (a % pages) * units.PageSize
			size := (1 + b%8) * units.PageSize
			if addr+size > pages*units.PageSize {
				size = pages*units.PageSize - addr
			}
			now += time.Millisecond
			switch op % 11 {
			case 0, 1, 2:
				m.TouchRange(as, addr, size, op&0x10 != 0)
			case 3:
				m.AdviseCold(as, addr, size)
			case 4:
				m.AdviseHot(as, addr, size)
			case 5:
				m.Prefetch(as, addr, size)
			case 6:
				m.ReleaseRange(as, addr, size)
			case 7:
				if b%4 == 0 {
					fault.LatencyFactor = 0
				} else {
					fault.LatencyFactor = float64(1 + b%16)
				}
			case 8:
				if b%2 == 0 {
					fault.OfflineFor = time.Duration(1+b%50) * time.Millisecond
				} else {
					fault.OfflineFor = 0
				}
			case 9:
				if b%2 == 0 {
					m.Swap.ReserveSlots(b)
				} else {
					m.Swap.UnreserveSlots(b)
				}
			case 10:
				if b%4 == 0 {
					fault.CPUFactor = 0
				} else {
					fault.CPUFactor = float64(1 + b%8)
				}
			}
			if err := m.Swap.Check(); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
		}
		vmInvariants(t, m, []*mem.AddressSpace{as})
		if err := m.Corrupt(); err != nil {
			t.Fatalf("corruption latched: %v", err)
		}
	})
}
