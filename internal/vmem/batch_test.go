package vmem

import (
	"slices"
	"testing"
	"time"

	"fleetsim/internal/mem"
	"fleetsim/internal/units"
	"fleetsim/internal/xrand"
)

// batchAccess is one recorded Touch/TouchPin, with its address space
// named by index so the same sequence can be replayed on a second rig.
type batchAccess struct {
	as         int
	addr, size int64
	write, pin bool
}

// randomAccesses draws n accesses over nSpaces address spaces of
// spacePages pages each. Most continue a bump pointer (the evacuation
// shape: runs of sub-page objects, some straddling a page boundary), the
// rest jump to a random space and page; sizes mix sub-page, exact-page and
// multi-page ranges, plus the occasional empty range that must be ignored.
func randomAccesses(r *xrand.Rand, n, nSpaces int, spacePages int64) []batchAccess {
	limit := spacePages * units.PageSize
	out := make([]batchAccess, 0, n)
	as, next := 0, int64(0)
	for len(out) < n {
		if r.Bool(0.15) {
			as = r.Intn(nSpaces)
			next = r.Int63n(limit)
		}
		var size int64
		switch k := r.Intn(10); {
		case k < 6:
			size = 16 + r.Int63n(240) // sub-page object
		case k < 8:
			size = units.PageSize
		case k < 9:
			size = units.PageSize + r.Int63n(3*units.PageSize) // multi-page
		default:
			size = 0
		}
		if next+size > limit {
			next = 0
		}
		out = append(out, batchAccess{as: as, addr: next, size: size, write: r.Bool(0.5), pin: r.Bool(0.2)})
		next += size
	}
	return out
}

// record replays accs into b over the given spaces.
func record(b *Batch, spaces []*mem.AddressSpace, accs []batchAccess) {
	for _, a := range accs {
		if a.pin {
			b.TouchPin(spaces[a.as], a.addr, a.size, a.write)
		} else {
			b.Touch(spaces[a.as], a.addr, a.size, a.write)
		}
	}
}

// naiveRuns is the reference model of Batch: expand every access into its
// pages, then merge consecutive touches of the same (space, page).
func naiveRuns(spaces []*mem.AddressSpace, accs []batchAccess) []pageRun {
	var pages []pageRun
	for _, a := range accs {
		if a.size <= 0 {
			continue
		}
		for pi := units.PageIndex(a.addr); pi <= units.PageIndex(a.addr+a.size-1); pi++ {
			pages = append(pages, pageRun{as: spaces[a.as], idx: pi, count: 1, write: a.write, pin: a.pin})
		}
	}
	var runs []pageRun
	for _, p := range pages {
		if n := len(runs); n > 0 && runs[n-1].as == p.as && runs[n-1].idx == p.idx {
			runs[n-1].count++
			runs[n-1].write = runs[n-1].write || p.write
			runs[n-1].pin = runs[n-1].pin || p.pin
			continue
		}
		runs = append(runs, p)
	}
	return runs
}

func TestBatchRunsMatchNaiveModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := xrand.New(seed)
		nSpaces := 2 + r.Intn(2)
		spaces := make([]*mem.AddressSpace, nSpaces)
		for i := range spaces {
			spaces[i] = mem.NewAddressSpace("app")
		}
		var b Batch
		for round := 0; round < 3; round++ {
			accs := randomAccesses(r, 300, nSpaces, 32)
			record(&b, spaces, accs)
			want := naiveRuns(spaces, accs)
			if len(b.runs) != len(want) {
				t.Fatalf("seed %d round %d: %d runs, model has %d", seed, round, len(b.runs), len(want))
			}
			for i := range want {
				if b.runs[i] != want[i] {
					t.Fatalf("seed %d round %d run %d: got %+v, model %+v", seed, round, i, b.runs[i], want[i])
				}
			}
			if b.Len() != len(want) {
				t.Fatalf("seed %d round %d: Len = %d, want %d", seed, round, b.Len(), len(want))
			}
			b.Reset()
		}
	}
}

// pageSnap is the observable per-page state a batch must reproduce.
type pageSnap struct {
	state                          mem.PageState
	referenced, dirty, pinned, hot bool
	onLRU, onActive                bool
}

// lruPos names one LRU entry by its space's owner tag and page index.
type lruPos struct {
	owner string
	idx   int64
}

// lruOrder lists the LRU's pages head to tail, active list first.
func lruOrder(m *Manager) []lruPos {
	var out []lruPos
	for _, l := range []*lruList{&m.lru.active, &m.lru.inactive} {
		for p := l.head; p != nil; p = p.Next {
			out = append(out, lruPos{p.Space.Owner, p.Index})
		}
	}
	return out
}

// TestApplyBatchMatchesPerAccess replays the same accesses through
// ApplyBatch on one manager and through per-access TouchRange (+ Pin) on
// another. With DRAM to spare no reclaim runs, so the two must agree on
// every page's state and flags, the LRU order and sizes, the stall and the
// counters.
func TestApplyBatchMatchesPerAccess(t *testing.T) {
	const nSpaces, spacePages = 3, 48
	newRig := func() (*Manager, []*mem.AddressSpace) {
		m, _ := rig(4*nSpaces*spacePages, 16)
		spaces := make([]*mem.AddressSpace, nSpaces)
		for i := range spaces {
			spaces[i] = mem.NewAddressSpace(string(rune('a' + i)))
			spaces[i].Reserve(spacePages * units.PageSize)
		}
		return m, spaces
	}
	for seed := uint64(1); seed <= 10; seed++ {
		r := xrand.New(seed)
		mb, sb := newRig()
		mp, sp := newRig()
		var b Batch
		for round := 0; round < 4; round++ {
			accs := randomAccesses(r, 250, nSpaces, spacePages)
			record(&b, sb, accs)
			batchStall, err := mb.ApplyBatch(&b)
			if err != nil {
				t.Fatalf("seed %d round %d: ApplyBatch: %v", seed, round, err)
			}
			if b.Len() != 0 {
				t.Fatalf("seed %d round %d: batch not reset (%d runs)", seed, round, b.Len())
			}
			var perStall time.Duration
			for _, a := range accs {
				stall, err := mp.TouchRange(sp[a.as], a.addr, a.size, a.write)
				if err != nil {
					t.Fatalf("seed %d round %d: TouchRange: %v", seed, round, err)
				}
				perStall += stall
				if a.pin && a.size > 0 {
					mp.Pin(sp[a.as], a.addr, a.size)
				}
			}
			if batchStall != perStall {
				t.Errorf("seed %d round %d: stall %v, per-access %v", seed, round, batchStall, perStall)
			}
			for i := range sb {
				for idx := int64(0); idx < spacePages; idx++ {
					pb, pp := sb[i].PageByIndex(idx), sp[i].PageByIndex(idx)
					if (pb == nil) != (pp == nil) {
						t.Fatalf("seed %d round %d space %d page %d: exists %v vs %v", seed, round, i, idx, pb != nil, pp != nil)
					}
					if pb == nil {
						continue
					}
					gb := pageSnap{pb.State, pb.Referenced, pb.Dirty, pb.Pinned, pb.Hot, pb.OnLRU, pb.OnActiveList}
					gp := pageSnap{pp.State, pp.Referenced, pp.Dirty, pp.Pinned, pp.Hot, pp.OnLRU, pp.OnActiveList}
					if gb != gp {
						t.Fatalf("seed %d round %d space %d page %d: batch %+v, per-access %+v", seed, round, i, idx, gb, gp)
					}
				}
			}
			ab, ib := mb.LRUSizes()
			ap, ip := mp.LRUSizes()
			if ab != ap || ib != ip {
				t.Errorf("seed %d round %d: LRU sizes %d/%d, per-access %d/%d", seed, round, ab, ib, ap, ip)
			}
			if !slices.Equal(lruOrder(mb), lruOrder(mp)) {
				t.Fatalf("seed %d round %d: LRU order differs from per-access", seed, round)
			}
			if mb.Stats() != mp.Stats() {
				t.Errorf("seed %d round %d: stats %+v, per-access %+v", seed, round, mb.Stats(), mp.Stats())
			}
		}
	}
}
