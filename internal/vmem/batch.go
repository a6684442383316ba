package vmem

import (
	"time"

	"fleetsim/internal/mem"
	"fleetsim/internal/units"
)

// Batch accumulates the page touches of one logical event — a GC
// evacuation pass, a bulk swap-out — so the manager can apply them in one
// walk instead of re-entering the page-state machine per object access.
// Evacuation writes dozens of sub-page objects into each destination page;
// the per-object path paid a Touch (page-state switch, LRU update, kswapd
// balance check) for every one of them. Batch collapses touches as they are
// recorded: a touch of the page the last run ended on extends that run, any
// other page opens a new one, so an evacuation buffers one entry per
// destination page rather than one per copied object. ApplyBatch then
// applies each run once: a single fault/LRU insertion, the touch
// multiplicity replayed in O(1) (the LRU referenced/active transitions
// saturate), and one balance check per page instead of one per object.
//
// The zero value is ready to use; ApplyBatch resets the batch for reuse.
type Batch struct {
	runs []pageRun
}

// pageRun is the collapsed form of consecutive recorded touches of one
// page: how many accesses hit it and whether any wrote or pinned.
type pageRun struct {
	as    *mem.AddressSpace
	idx   int64
	count int
	write bool
	pin   bool
}

// Touch records an access to [addr, addr+size) of as.
func (b *Batch) Touch(as *mem.AddressSpace, addr, size int64, write bool) {
	b.record(as, addr, size, write, false)
}

// TouchPin records a write that must also pin its pages (Marvin's
// unevictable destination regions). Pinning happens during ApplyBatch as
// each page is applied — before any later page's fault can trigger a
// reclaim — so reclaim cannot steal an earlier destination page
// mid-batch, matching the pin-as-you-copy behaviour of the per-object
// path.
func (b *Batch) TouchPin(as *mem.AddressSpace, addr, size int64, write bool) {
	b.record(as, addr, size, write, true)
}

// record folds one access into the run list, page by page in address
// order.
func (b *Batch) record(as *mem.AddressSpace, addr, size int64, write, pin bool) {
	if size <= 0 {
		return
	}
	last := units.PageIndex(addr + size - 1)
	for pi := units.PageIndex(addr); pi <= last; pi++ {
		if n := len(b.runs); n > 0 && b.runs[n-1].as == as && b.runs[n-1].idx == pi {
			r := &b.runs[n-1]
			r.count++
			r.write = r.write || write
			r.pin = r.pin || pin
			continue
		}
		b.runs = append(b.runs, pageRun{as: as, idx: pi, count: 1, write: write, pin: pin})
	}
}

// Len returns the number of page runs pending.
func (b *Batch) Len() int { return len(b.runs) }

// Reset drops pending runs, keeping the buffer.
func (b *Batch) Reset() { b.runs = b.runs[:0] }

// ApplyBatch services every page run recorded in b in record order, so the
// observable page-state sequence — fault order, LRU insertion order,
// referenced/active promotions, dirty and pin bits — is the same as if each
// access had called Touch itself, while the page-table work is done once
// per page run instead of once per access.
//
// The returned stall is the total synchronous fault time; the error is the
// first vmem error hit (later runs are still applied, mirroring the
// per-object loop it replaces where each object's touch was independent).
// The batch is reset afterwards.
func (m *Manager) ApplyBatch(b *Batch) (time.Duration, error) {
	var stall time.Duration
	var firstErr error
	for i := range b.runs {
		io, err := m.applyRun(&b.runs[i])
		stall += io
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	b.Reset()
	return stall, firstErr
}

// applyRun applies one page's collapsed touches: the first via the full
// page-state machine (fault-in, LRU insert, dirty bit), the remaining
// count-1 as resident re-touches — capped at three, where the LRU
// referenced/active state saturates — followed by one kswapd balance
// check. The balance outcome is identical to balancing right after the
// fault, since re-touches move no frames. The pin bit is set even when the
// touch failed (the per-object path pinned unconditionally after its
// touch attempt).
func (m *Manager) applyRun(run *pageRun) (time.Duration, error) {
	p := run.as.PageAt(run.idx)
	stall, err := m.touchPage(p, run.write)
	if run.pin {
		p.Pinned = true
	}
	if err != nil {
		return stall, err
	}
	extra := run.count - 1
	if extra > 3 {
		extra = 3
	}
	for i := 0; i < extra; i++ {
		m.lru.touched(p)
	}
	m.balance()
	return stall, nil
}
