// Package vmem is the Linux-side half of the simulated two-layer memory
// system: the page LRU, the kswapd-style reclaimer, the swap device, page
// faults with their stall costs, and the madvise interface Fleet's
// runtime-guided swap uses to steer the kernel (COLD_RUNTIME/HOT_RUNTIME).
package vmem

import (
	"fmt"
	"time"

	"fleetsim/internal/mem"
	"fleetsim/internal/units"
)

// MinorFaultCost approximates servicing a fault that only needs a zero
// page (no IO).
const MinorFaultCost = 3 * time.Microsecond

// Stats aggregates the manager's lifetime counters.
type Stats struct {
	MinorFaults int64
	MajorFaults int64
	SwapIns     int64
	SwapOuts    int64
	// FaultStall is the total synchronous time faulting threads spent
	// waiting on swap-in IO.
	FaultStall time.Duration
	// Refaults counts swap-ins of pages that had been swapped out less
	// than refaultWindow earlier — Linux's working-set refault signal,
	// the definition of thrashing.
	Refaults int64
	// RefaultStall is the portion of FaultStall spent on refaults.
	RefaultStall time.Duration
	// ReclaimIO is write-out time spent by the background reclaimer
	// (not charged to any faulting thread).
	ReclaimIO time.Duration
	// DirectReclaimStall is write-out time charged synchronously to an
	// allocating/faulting thread because kswapd fell behind.
	DirectReclaimStall time.Duration
	// PressureKills counts how many times the OnPressure callback had to
	// free memory (i.e. lmkd activity).
	PressureKills int64
	// SwapRetries counts backoff sleeps taken by faulting threads while an
	// offline swap device held their data (retry-with-backoff in sim time).
	SwapRetries int64
	// OfflineWait is the total sim time faulting threads spent waiting out
	// device-offline windows.
	OfflineWait time.Duration
	// SwapWriteFails counts swap-outs skipped because the device was full
	// or offline (the page stayed resident; pressure persisted).
	SwapWriteFails int64
	// OfflineGiveUps counts swap-in attempts abandoned because the
	// device's offline window outlasted MaxOfflineWait (the read surfaces
	// ErrSwapOffline instead of stalling unboundedly).
	OfflineGiveUps int64
}

// Manager owns physical memory, the LRU and the swap backend, and is the
// only reader of the swap device's injected health: every operation samples
// Faults once, refuses stores and waits out reads inside offline windows,
// and hands the sampled FaultState to the backend, which scales its costs.
type Manager struct {
	Phys *mem.Physical
	Swap SwapBackend
	lru  twoListLRU

	// LowWatermark / HighWatermark are free-frame thresholds in frames:
	// reclaim kicks in below low and stops above high.
	LowWatermark  int64
	HighWatermark int64

	// OnPressure is invoked when reclaim cannot free a frame (swap full or
	// nothing evictable). It must free memory (e.g. kill an app, releasing
	// its pages) and return true, or return false to signal true OOM.
	OnPressure func(needFrames int64) bool

	// AfterReclaim, when non-nil, runs after every reclaim pass; the test
	// harness hangs the cross-layer invariant checker on it.
	AfterReclaim func()

	// Now supplies virtual time for refault detection; nil means time
	// stands still (refaults are then never detected).
	Now func() time.Duration

	// Faults, when non-nil, supplies the swap device's injected health
	// (stall, offline and CPU-spike windows; internal/faults installs it).
	// Left nil in fault-free runs, where every operation sees the zero
	// FaultState.
	Faults func() FaultState

	// MaxOfflineWait bounds how long a faulting thread retries against an
	// offline swap device before giving up with ErrSwapOffline. 0 means
	// wait out the whole window, however long (raw-kernel behaviour); the
	// android layer sets a cap so one injected outage cannot stall a
	// sweep leg unboundedly.
	MaxOfflineWait time.Duration

	stats   Stats
	corrupt error // first accounting-corruption error, latched for the checker
}

// NewManager wires DRAM and swap together. Watermarks default to 2% / 4% of
// DRAM, mirroring typical zone watermark scale on Android devices.
func NewManager(phys *mem.Physical, swap SwapBackend) *Manager {
	m := &Manager{Phys: phys, Swap: swap}
	m.LowWatermark = phys.TotalFrames / 50
	if m.LowWatermark < 8 {
		m.LowWatermark = 8
	}
	m.HighWatermark = m.LowWatermark * 2
	return m
}

// refaultWindow is how recently a page must have been swapped out for its
// swap-in to count as a refault.
const refaultWindow = 120 * time.Second

// Stats returns a copy of the lifetime counters.
func (m *Manager) Stats() Stats { return m.stats }

// Corrupt returns the first internal accounting corruption observed (nil
// when healthy). The invariant checker treats a non-nil value as a
// violation; degraded-but-consistent operation keeps it nil.
func (m *Manager) Corrupt() error { return m.corrupt }

func (m *Manager) noteCorrupt(err error) {
	if m.corrupt == nil {
		m.corrupt = err
	}
}

// faultState samples the injected fault hook, if any.
func (m *Manager) faultState() FaultState {
	if m.Faults == nil {
		return FaultState{}
	}
	return m.Faults()
}

// Online reports whether the swap device is outside an injected offline
// window right now.
func (m *Manager) Online() bool { return m.faultState().OfflineFor <= 0 }

// waitOffline models a faulting thread retrying with exponential backoff
// (in sim time) until the swap device's offline window off has passed. The
// data is still on the device, so a read can always be retried — the thread
// just pays the wait as stall. When MaxOfflineWait is set and the window
// outlasts it, the thread gives up after paying the capped wait and the
// caller surfaces ErrSwapOffline instead of stalling unboundedly.
func (m *Manager) waitOffline(off time.Duration) (time.Duration, error) {
	if off <= 0 {
		return 0, nil
	}
	limit := off
	capped := false
	if m.MaxOfflineWait > 0 && off > m.MaxOfflineWait {
		limit = m.MaxOfflineWait
		capped = true
	}
	var waited time.Duration
	backoff := 250 * time.Microsecond
	for waited < limit {
		waited += backoff
		m.stats.SwapRetries++
		backoff *= 2
		if backoff > 100*time.Millisecond {
			backoff = 100 * time.Millisecond
		}
	}
	m.stats.OfflineWait += waited
	if capped {
		m.stats.OfflineGiveUps++
		return waited, fmt.Errorf("%w: offline %v outlasts retry budget %v",
			ErrSwapOffline, off, m.MaxOfflineWait)
	}
	return waited, nil
}

// swapIn brings a swapped page back into DRAM: it waits out an offline
// window, makes a frame free, and reads the page at random or sequential
// (readahead) speed. It returns the wait and direct-reclaim stall and the
// read's IO separately. The pressure callback may release the page while
// a frame is made (its owner was killed); swapIn then returns with the
// page unmapped and no IO.
func (m *Manager) swapIn(p *mem.Page, sequential bool) (stall, io time.Duration, err error) {
	fs := m.faultState()
	stall, err = m.waitOffline(fs.OfflineFor)
	if err != nil {
		return stall, 0, err
	}
	fio, err := m.ensureFrame(1)
	stall += fio
	if err != nil || p.State != mem.PageSwapped {
		return stall, 0, err
	}
	io, err = m.Swap.ReadPage(p, fs, sequential)
	if err != nil {
		m.noteCorrupt(err)
		return stall, 0, err
	}
	if err := m.Phys.MakeResident(p); err != nil {
		m.noteCorrupt(err)
		return stall, io, fmt.Errorf("%w: %v", ErrOOM, err)
	}
	p.Referenced = true
	m.lru.insert(p)
	m.stats.SwapIns++
	return stall, io, nil
}

// store writes a resident page to the swap backend under fs. A store
// inside an offline window is refused like one the device has no room for
// (ErrSwapOffline); either refusal counts in SwapWriteFails.
func (m *Manager) store(p *mem.Page, fs FaultState) (time.Duration, error) {
	if fs.OfflineFor > 0 {
		m.stats.SwapWriteFails++
		return 0, ErrSwapOffline
	}
	io, err := m.Swap.WritePage(p, fs)
	if err != nil {
		m.stats.SwapWriteFails++
	}
	return io, err
}

// swapOut finishes a stored page's swap-out: it moves the page (already
// off the LRU) out of DRAM, stamps it for refault detection and counts the
// op. A refused transition is latched as corruption, its slot discarded and
// the page put back on the LRU; swapOut then reports false.
func (m *Manager) swapOut(p *mem.Page) bool {
	if err := m.Phys.MoveToSwap(p); err != nil {
		m.noteCorrupt(err)
		if derr := m.Swap.Discard(p); derr != nil {
			m.noteCorrupt(derr)
		}
		m.lru.insert(p)
		return false
	}
	m.stats.SwapOuts++
	if m.Now != nil {
		p.SwapOutAt = m.Now()
	}
	return true
}

// Touch simulates one memory access to addr's page: fault it in if needed,
// update LRU state, and return the synchronous stall the accessing thread
// experienced (zero for a plain resident hit — DRAM cost is charged by the
// CPU model at a higher level). A non-nil error (ErrOOM) means the access
// could not be satisfied; the page and all accounting remain consistent, so
// the caller can kill the process or retry later.
func (m *Manager) Touch(p *mem.Page, write bool) (time.Duration, error) {
	stall, err := m.touchPage(p, write)
	if err != nil {
		return stall, err
	}
	m.balance()
	return stall, nil
}

// touchPage is Touch without the trailing kswapd balance check, so batched
// appliers (ApplyBatch) can run balance once per event instead of once per
// page. Direct reclaim via ensureFrame still happens here per fault.
func (m *Manager) touchPage(p *mem.Page, write bool) (time.Duration, error) {
	var stall time.Duration
	switch p.State {
	case mem.PageResident:
		m.lru.touched(p)
	case mem.PageUnmapped:
		io, err := m.ensureFrame(1)
		stall += io
		if err != nil {
			return stall, err
		}
		if err := m.Phys.MakeResident(p); err != nil {
			return stall, fmt.Errorf("%w: %v", ErrOOM, err)
		}
		m.lru.insert(p)
		m.stats.MinorFaults++
		stall += MinorFaultCost
	case mem.PageSwapped:
		// Retry-with-backoff across injected device-offline windows: the
		// data cannot arrive until the device is back. A capped wait that
		// expires aborts the access; the caller decides the process's fate.
		wait, io, err := m.swapIn(p, false)
		stall += wait + io
		if err != nil {
			return stall, err
		}
		if p.State == mem.PageUnmapped {
			// The pressure callback released this very page while a frame
			// was made; fault it in as a fresh page.
			if err := m.Phys.MakeResident(p); err != nil {
				return stall, fmt.Errorf("%w: %v", ErrOOM, err)
			}
			m.lru.insert(p)
			m.stats.MinorFaults++
			stall += MinorFaultCost
			break
		}
		m.stats.MajorFaults++
		m.stats.FaultStall += io
		if m.Now != nil && m.Now()-p.SwapOutAt < refaultWindow {
			m.stats.Refaults++
			m.stats.RefaultStall += io
		}
	}
	if write {
		p.Dirty = true
	}
	return stall, nil
}

// TouchRange touches every page overlapping [addr, addr+size) in as,
// returning the total stall. It is the per-object-access hot path and
// avoids allocation. On error the already-paid stall is still returned;
// pages before the failing one remain resident (a partially serviced
// multi-page access, like a real fault mid-loop).
func (m *Manager) TouchRange(as *mem.AddressSpace, addr, size int64, write bool) (time.Duration, error) {
	if size <= 0 {
		return 0, nil
	}
	first := units.PageIndex(addr)
	last := units.PageIndex(addr + size - 1)
	var stall time.Duration
	for i := first; i <= last; i++ {
		io, err := m.Touch(as.PageAt(i), write)
		stall += io
		if err != nil {
			return stall, err
		}
	}
	return stall, nil
}

// Resident reports whether addr's page is currently in DRAM (untouched
// pages count as instantly available — they need no IO).
func (m *Manager) Resident(as *mem.AddressSpace, addr int64) bool {
	p := as.PageByIndex(units.PageIndex(addr))
	return p == nil || p.State != mem.PageSwapped
}

// Release frees one page entirely (its memory was unmapped, e.g. a GC
// from-region being reclaimed). Slot-accounting corruption is latched for
// the invariant checker rather than aborting the run.
func (m *Manager) Release(p *mem.Page) {
	switch p.State {
	case mem.PageResident:
		m.lru.remove(p)
		m.Phys.Release(p)
	case mem.PageSwapped:
		if err := m.Swap.Discard(p); err != nil {
			m.noteCorrupt(err)
		}
		m.Phys.Release(p)
	default:
		m.Phys.Release(p)
	}
}

// ReleaseRange frees every instantiated page in [addr, addr+size).
func (m *Manager) ReleaseRange(as *mem.AddressSpace, addr, size int64) {
	as.ForRange(addr, size, func(p *mem.Page) { m.Release(p) })
}

// ReleaseSpace frees every page of an address space (process death).
func (m *Manager) ReleaseSpace(as *mem.AddressSpace) {
	as.ForEachPage(func(p *mem.Page) { m.Release(p) })
}

// AdviseCold implements madvise(COLD_RUNTIME): the pages in [addr,
// addr+size) are actively written to swap right now, ahead of memory
// pressure (§5.3.2). Pages the device cannot take (no room, offline
// window) are instead demoted to the inactive tail so ordinary reclaim
// takes them first. The returned duration is the total write IO, which the
// caller decides how to account (Fleet issues it from a background thread).
func (m *Manager) AdviseCold(as *mem.AddressSpace, addr, size int64) time.Duration {
	fs := m.faultState()
	var io time.Duration
	as.ForRange(addr, size, func(p *mem.Page) {
		if p.State != mem.PageResident || p.Pinned {
			return
		}
		p.Hot = false
		wio, err := m.store(p, fs)
		if err != nil {
			m.lru.moveToInactiveTail(p)
			return
		}
		io += wio
		m.lru.remove(p)
		m.swapOut(p)
	})
	return io
}

// AdviseHot implements madvise(HOT_RUNTIME): mark the pages as
// launch-critical and rotate them to the hottest LRU position so reclaim
// avoids them while anything else is evictable (§5.3.2).
func (m *Manager) AdviseHot(as *mem.AddressSpace, addr, size int64) {
	as.ForRange(addr, size, func(p *mem.Page) {
		p.Hot = true
		if p.State == mem.PageResident {
			m.lru.moveToActiveHead(p)
		}
	})
}

// AdviseNormal clears HOT_RUNTIME advice (Fleet stops once the app returns
// to a stable foreground state).
func (m *Manager) AdviseNormal(as *mem.AddressSpace, addr, size int64) {
	as.ForRange(addr, size, func(p *mem.Page) { p.Hot = false })
}

// Pin marks pages unevictable (Marvin keeps sub-threshold objects and its
// reference stubs resident). Pinned pages are never reclaimed. Pin does not
// fault pages in: already-resident pages stay put, and swapped pages become
// pinned as they fault back through Touch.
func (m *Manager) Pin(as *mem.AddressSpace, addr, size int64) {
	as.EnsureForRange(addr, size, func(p *mem.Page) { p.Pinned = true })
}

// Unpin clears the unevictable mark.
func (m *Manager) Unpin(as *mem.AddressSpace, addr, size int64) {
	as.ForRange(addr, size, func(p *mem.Page) { p.Pinned = false })
}

// Prefetch swap-ins every swapped page of [addr, addr+size) at sequential
// readahead speed and returns (pages, io, err). Prefetchers (ASAP-style
// baselines) call this ahead of a launch so the launch itself runs without
// random faults. On error the pages fetched so far stay resident.
func (m *Manager) Prefetch(as *mem.AddressSpace, addr, size int64) (int64, time.Duration, error) {
	var pages int64
	var io time.Duration
	var firstErr error
	as.ForRange(addr, size, func(p *mem.Page) {
		if firstErr != nil || p.State != mem.PageSwapped {
			return
		}
		wait, rio, err := m.swapIn(p, true)
		io += wait + rio
		if err != nil {
			firstErr = err
			return
		}
		if p.State != mem.PageResident {
			return // released by the pressure callback mid-prefetch
		}
		pages++
	})
	m.balance()
	return pages, io, firstErr
}

// balance is the kswapd analogue: when free frames dip below the low
// watermark it evicts from the LRU tail until the high watermark is met.
// Its IO is asynchronous from the mutators' perspective (tracked in
// Stats.ReclaimIO, not returned as stall). With the swap device full and
// no AfterReclaim hook, reclaim could neither scan nor report, so balance
// does not call it: under sustained pressure that is most page touches.
func (m *Manager) balance() {
	if m.Phys.FreeFrames() >= m.LowWatermark {
		return
	}
	if m.AfterReclaim == nil && m.Swap.FreeSlots() <= 0 {
		return
	}
	need := m.HighWatermark - m.Phys.FreeFrames()
	io, _ := m.reclaim(need, false)
	m.stats.ReclaimIO += io
}

// ensureFrame guarantees at least need free frames, running direct reclaim
// (and ultimately the pressure callback) if necessary. Returns the stall
// charged to the calling thread. When reclaim, emergency reclaim and the
// pressure callback all fail to free a frame, it returns ErrOOM — the
// caller (android) OOM-kills the faulting process and the sim continues.
func (m *Manager) ensureFrame(need int64) (time.Duration, error) {
	var stall time.Duration
	const maxAttempts = 1 << 12
	for attempt := 0; m.Phys.FreeFrames() < need; attempt++ {
		if attempt >= maxAttempts {
			return stall, fmt.Errorf("%w: reclaim made no forward progress (need %d frames, free %d)",
				ErrOOM, need, m.Phys.FreeFrames())
		}
		io, freed := m.reclaim(need-m.Phys.FreeFrames(), false)
		stall += io
		m.stats.DirectReclaimStall += io
		if freed > 0 {
			continue
		}
		// Ordinary reclaim found nothing: try again ignoring HOT advice
		// ("launch objects are cached until there are no other pages to be
		// swapped out", §5.1).
		io, freed = m.reclaim(need-m.Phys.FreeFrames(), true)
		stall += io
		m.stats.DirectReclaimStall += io
		if freed > 0 {
			continue
		}
		// Still nothing: swap is full or everything left is pinned. This is
		// the lmkd moment.
		m.stats.PressureKills++
		if m.OnPressure == nil || !m.OnPressure(need-m.Phys.FreeFrames()) {
			return stall, fmt.Errorf("%w: need %d frames, free %d, swap free %d slots",
				ErrOOM, need, m.Phys.FreeFrames(), m.Swap.FreeSlots())
		}
	}
	return stall, nil
}

// reclaim scans the LRU and swaps out up to want pages, returning the IO
// time and the number of frames actually freed. An offline or full swap
// device stops the pass: remaining victims go back on the LRU, the pages
// stay resident and pressure persists — real zram behaviour.
func (m *Manager) reclaim(want int64, emergency bool) (time.Duration, int64) {
	fs := m.faultState()
	var io time.Duration
	var freed int64
scan:
	for freed < want && fs.OfflineFor <= 0 && m.Swap.FreeSlots() > 0 {
		m.lru.rebalance()
		batch := want - freed
		if batch > 32 {
			batch = 32
		}
		victims := m.lru.scanTail(batch*4, emergency)
		if len(victims) == 0 {
			break
		}
		for vi, p := range victims {
			wio, err := m.store(p, fs)
			if err != nil {
				// Swap refused the store (full): put this and all
				// remaining victims back; the caller escalates.
				for _, q := range victims[vi:] {
					m.lru.insert(q)
				}
				break scan
			}
			io += wio
			if m.swapOut(p) {
				freed++
			}
		}
	}
	if m.AfterReclaim != nil {
		m.AfterReclaim()
	}
	return io, freed
}

// ProactiveReclaim swaps out up to want LRU-tail pages ahead of any
// watermark breach, returning how many pages actually moved. The SWAM
// policy calls it when modeled app responsiveness degrades, trading
// background residency for headroom before lmkd has to kill. The write-out
// IO is asynchronous (tracked in Stats.ReclaimIO, like kswapd's).
func (m *Manager) ProactiveReclaim(want int64) int64 {
	if want <= 0 {
		return 0
	}
	io, freed := m.reclaim(want, false)
	m.stats.ReclaimIO += io
	return freed
}

// LRUSizes reports (active, inactive) list lengths, for tests and the
// debugging CLI.
func (m *Manager) LRUSizes() (active, inactive int64) {
	return m.lru.active.len(), m.lru.inactive.len()
}

// DRAMCost returns the CPU-side cost of streaming n bytes from DRAM at the
// paper's measured bandwidth; the heap layer charges this for object copies
// during GC evacuation.
func DRAMCost(n int64) time.Duration {
	return units.TransferTime(n, DefaultDRAMBandwidth)
}
