package vmem

import (
	"testing"
	"time"

	"fleetsim/internal/mem"
	"fleetsim/internal/units"
)

// lruInvariant walks both lists and checks linkage + counters.
func lruInvariant(t *testing.T, lru *twoListLRU) {
	t.Helper()
	check := func(l *lruList, active bool, name string) {
		n := int64(0)
		var prev *mem.Page
		for p := l.head; p != nil; p = p.Next {
			if p.Prev != prev {
				t.Fatalf("%s list: broken Prev at %v", name, p.Index)
			}
			if !p.OnLRU || p.OnActiveList != active {
				t.Fatalf("%s list: flags wrong at %v (OnLRU=%v OnActiveList=%v)", name, p.Index, p.OnLRU, p.OnActiveList)
			}
			prev = p
			n++
			if n > 1<<20 {
				t.Fatalf("%s list: cycle detected", name)
			}
		}
		if l.tail != prev {
			t.Fatalf("%s list: tail mismatch", name)
		}
		if n != l.n {
			t.Fatalf("%s list: count %d != stored %d", name, n, l.n)
		}
	}
	check(&lru.active, true, "active")
	check(&lru.inactive, false, "inactive")
}

func makePages(n int) []*mem.Page {
	as := mem.NewAddressSpace("lru-test")
	as.Reserve(int64(n) * units.PageSize)
	out := make([]*mem.Page, n)
	for i := range out {
		out[i] = as.Page(int64(i) * units.PageSize)
	}
	return out
}

func TestLRUInsertRemove(t *testing.T) {
	var lru twoListLRU
	pages := makePages(10)
	for _, p := range pages {
		lru.insert(p)
	}
	lruInvariant(t, &lru)
	if lru.total() != 10 {
		t.Fatalf("total = %d", lru.total())
	}
	// Double insert is a no-op.
	lru.insert(pages[0])
	if lru.total() != 10 {
		t.Fatal("double insert changed total")
	}
	lru.remove(pages[5])
	lruInvariant(t, &lru)
	if lru.total() != 9 {
		t.Fatalf("total after remove = %d", lru.total())
	}
	lru.remove(pages[5]) // no-op
	lruInvariant(t, &lru)
}

func TestSecondChancePromotion(t *testing.T) {
	var lru twoListLRU
	pages := makePages(4)
	for _, p := range pages {
		lru.insert(p)
	}
	// First touch: referenced bit only.
	lru.touched(pages[0])
	if pages[0].OnActiveList {
		t.Fatal("promoted on first touch")
	}
	// Second touch: promoted.
	lru.touched(pages[0])
	if !pages[0].OnActiveList {
		t.Fatal("not promoted on second touch")
	}
	lruInvariant(t, &lru)
}

// Regression: moveToActiveHead removed pages from the WRONG list when they
// were already active, corrupting both lists (found during calibration).
func TestMoveToActiveHeadFromBothLists(t *testing.T) {
	var lru twoListLRU
	pages := makePages(6)
	for _, p := range pages {
		lru.insert(p)
	}
	// Promote page 0 the normal way so it is on the active list.
	lru.touched(pages[0])
	lru.touched(pages[0])
	lruInvariant(t, &lru)

	// Force-promote an inactive page: must move lists cleanly.
	lru.moveToActiveHead(pages[3])
	lruInvariant(t, &lru)
	if !pages[3].OnActiveList {
		t.Fatal("page 3 not active")
	}
	// Force-promote an ALREADY-ACTIVE page: the historical corruption.
	lru.moveToActiveHead(pages[0])
	lruInvariant(t, &lru)
	if lru.active.len() != 2 || lru.inactive.len() != 4 {
		t.Fatalf("lists after promotions: active=%d inactive=%d", lru.active.len(), lru.inactive.len())
	}
}

func TestMoveToInactiveTailFromBothLists(t *testing.T) {
	var lru twoListLRU
	pages := makePages(5)
	for _, p := range pages {
		lru.insert(p)
	}
	lru.moveToActiveHead(pages[2])
	lruInvariant(t, &lru)
	// Demote the active page.
	lru.moveToInactiveTail(pages[2])
	lruInvariant(t, &lru)
	if pages[2].OnActiveList {
		t.Fatal("still active")
	}
	if lru.inactive.tail != pages[2] {
		t.Fatal("not at inactive tail")
	}
	// Demote an already-inactive page: must land at the tail.
	lru.moveToInactiveTail(pages[0])
	lruInvariant(t, &lru)
	if lru.inactive.tail != pages[0] {
		t.Fatal("page 0 not at tail")
	}
}

func TestScanTailSkipsPinnedAndHot(t *testing.T) {
	var lru twoListLRU
	pages := makePages(6)
	for _, p := range pages {
		lru.insert(p)
	}
	pages[5].Pinned = true // tail of inactive is pages[0]... order: pushHead → head=5, tail=0
	pages[0].Hot = true
	victims := lru.scanTail(10, false)
	for _, v := range victims {
		if v.Pinned || v.Hot {
			t.Fatal("pinned/hot page selected as victim")
		}
	}
	lruInvariant(t, &lru)
	// Emergency scan may take hot pages but never pinned.
	lru.rebalance()
	victims = lru.scanTail(10, true)
	for _, v := range victims {
		if v.Pinned {
			t.Fatal("pinned page selected in emergency")
		}
	}
	lruInvariant(t, &lru)
}

func TestRefaultDetection(t *testing.T) {
	m, as := rig(32, 32)
	now := time.Duration(0)
	m.Now = func() time.Duration { return now }
	base := as.Reserve(4 * units.PageSize)
	m.TouchRange(as, base, 4*units.PageSize, true)

	// Swap out, fault back quickly: refault.
	m.AdviseCold(as, base, units.PageSize)
	now = 10 * time.Second
	m.TouchRange(as, base, 1, false)
	if m.Stats().Refaults != 1 {
		t.Errorf("refaults = %d, want 1", m.Stats().Refaults)
	}
	if m.Stats().RefaultStall <= 0 {
		t.Error("refault stall not recorded")
	}

	// Swap out, fault back after the window: not a refault.
	m.AdviseCold(as, base, units.PageSize)
	now = 10*time.Second + refaultWindow + 10*time.Second
	m.TouchRange(as, base, 1, false)
	if m.Stats().Refaults != 1 {
		t.Errorf("late fault counted as refault: %d", m.Stats().Refaults)
	}
}

func TestAdviseColdDemotesWhenSwapFull(t *testing.T) {
	m, as := rig(32, 2) // two swap slots only
	base := as.Reserve(6 * units.PageSize)
	m.TouchRange(as, base, 6*units.PageSize, true)
	m.AdviseCold(as, base, 6*units.PageSize)
	if m.Swap.FreeSlots() != 0 {
		t.Fatalf("swap not full: %d free", m.Swap.FreeSlots())
	}
	// Remaining resident advised pages must be demoted to the inactive
	// tail, first in line for reclaim.
	if as.ResidentPages() != 4 {
		t.Fatalf("resident = %d", as.ResidentPages())
	}
	a, i := m.LRUSizes()
	if i == 0 {
		t.Errorf("no inactive pages after demote (active=%d inactive=%d)", a, i)
	}
}
