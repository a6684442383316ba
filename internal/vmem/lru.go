package vmem

import "fleetsim/internal/mem"

// lruList is an intrusive doubly-linked list of resident pages using the
// Prev/Next fields embedded in mem.Page. Head is the most-recently-used end;
// tail is the reclaim end.
type lruList struct {
	head, tail *mem.Page
	n          int64
}

func (l *lruList) len() int64 { return l.n }

func (l *lruList) pushHead(p *mem.Page) {
	p.Prev = nil
	p.Next = l.head
	if l.head != nil {
		l.head.Prev = p
	}
	l.head = p
	if l.tail == nil {
		l.tail = p
	}
	l.n++
}

func (l *lruList) remove(p *mem.Page) {
	if p.Prev != nil {
		p.Prev.Next = p.Next
	} else {
		l.head = p.Next
	}
	if p.Next != nil {
		p.Next.Prev = p.Prev
	} else {
		l.tail = p.Prev
	}
	p.Prev, p.Next = nil, nil
	l.n--
}

func (l *lruList) popTail() *mem.Page {
	p := l.tail
	if p == nil {
		return nil
	}
	l.remove(p)
	return p
}

// twoListLRU mirrors Linux's active/inactive anonymous-page LRU. New pages
// start on the inactive list; a touch of an inactive page promotes it to the
// active list; when the inactive list drops below a fraction of the total,
// the active tail is demoted. Reclaim always eats the inactive tail.
type twoListLRU struct {
	active, inactive lruList
	// victims is scanTail's result buffer, reused by every scan: a reclaim
	// pass consumes one scan's victims before it asks for the next.
	victims []*mem.Page
}

func (lru *twoListLRU) total() int64 { return lru.active.len() + lru.inactive.len() }

// insert registers a newly resident page.
func (lru *twoListLRU) insert(p *mem.Page) {
	if p.OnLRU {
		return
	}
	p.OnLRU = true
	p.OnActiveList = false
	lru.inactive.pushHead(p)
}

// remove unregisters a page (it was reclaimed or released).
func (lru *twoListLRU) remove(p *mem.Page) {
	if !p.OnLRU {
		return
	}
	if p.OnActiveList {
		lru.active.remove(p)
	} else {
		lru.inactive.remove(p)
	}
	p.OnLRU = false
}

// touched records an access: inactive pages with the referenced bit already
// set are promoted to active (Linux's second-chance policy); otherwise the
// referenced bit is set for the scanner to observe.
func (lru *twoListLRU) touched(p *mem.Page) {
	if !p.OnLRU {
		return
	}
	if p.OnActiveList {
		p.Referenced = true
		return
	}
	if p.Referenced {
		// Second touch while inactive: promote.
		lru.inactive.remove(p)
		p.OnActiveList = true
		p.Referenced = false
		lru.active.pushHead(p)
		return
	}
	p.Referenced = true
}

// moveToActiveHead force-promotes a page to the hottest position. Used by
// madvise(HOT_RUNTIME): the paper's RGS moves launch pages "to a highly used
// position in the LRU queue" (§5.3.2).
func (lru *twoListLRU) moveToActiveHead(p *mem.Page) {
	if !p.OnLRU {
		return
	}
	if p.OnActiveList {
		lru.active.remove(p)
	} else {
		lru.inactive.remove(p)
	}
	p.OnActiveList = true
	lru.active.pushHead(p)
}

// moveToInactiveTail force-demotes a page to the coldest position, making it
// the immediate next reclaim victim. Used by madvise(COLD_RUNTIME) when the
// swap device cannot take the page right now.
func (lru *twoListLRU) moveToInactiveTail(p *mem.Page) {
	if !p.OnLRU {
		return
	}
	if p.OnActiveList {
		lru.active.remove(p)
	} else {
		lru.inactive.remove(p)
	}
	p.OnActiveList = false
	p.Referenced = false
	// push at tail: splice manually.
	l := &lru.inactive
	p.Next = nil
	p.Prev = l.tail
	if l.tail != nil {
		l.tail.Next = p
	}
	l.tail = p
	if l.head == nil {
		l.head = p
	}
	l.n++
}

// rebalance demotes active-tail pages until the inactive list holds at least
// the target fraction of resident pages (Linux aims for a similar ratio).
func (lru *twoListLRU) rebalance() {
	total := lru.total()
	if total == 0 {
		return
	}
	// Keep inactive ≥ 1/3 of the LRU population.
	for lru.inactive.len()*3 < total {
		p := lru.active.popTail()
		if p == nil {
			return
		}
		if p.Referenced {
			// Referenced while active: rotate to the head instead.
			p.Referenced = false
			lru.active.pushHead(p)
			continue
		}
		p.OnActiveList = false
		lru.inactive.pushHead(p)
	}
}

// scanTail examines up to max pages from the inactive tail, returning
// reclaim victims in a buffer the next scan reuses. Referenced pages get a
// second chance (rotated/promoted); Hot pages (madvise HOT_RUNTIME) are
// rotated to the active list unless emergency is set.
func (lru *twoListLRU) scanTail(max int64, emergency bool) []*mem.Page {
	victims := lru.victims[:0]
	scanned := int64(0)
	for scanned < max {
		p := lru.inactive.popTail()
		if p == nil {
			break
		}
		scanned++
		if p.Pinned {
			p.OnActiveList = true
			lru.active.pushHead(p)
			continue
		}
		if p.Hot && !emergency {
			p.OnActiveList = true
			lru.active.pushHead(p)
			continue
		}
		if p.Referenced {
			p.Referenced = false
			p.OnActiveList = true
			lru.active.pushHead(p)
			continue
		}
		p.OnLRU = false
		p.Prev, p.Next = nil, nil
		victims = append(victims, p)
	}
	lru.victims = victims
	return victims
}
