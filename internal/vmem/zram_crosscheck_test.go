package vmem

import (
	"testing"

	"fleetsim/internal/mem"
	"fleetsim/internal/units"
	"fleetsim/internal/xrand"
)

// newTestZram builds a zram backend with a poolPages-page pool on the
// zram profile and backingPages slots of UFS backing flash.
func newTestZram(poolPages, backingPages int64, seed uint64) *Zram {
	return NewZram(SwapDeviceConfig{
		SizeBytes: (poolPages + backingPages) * units.PageSize,
		Profile:   ZramDeviceProfile(),
		Backend:   BackendZram,
		Zram: ZramConfig{
			PoolBytes:      poolPages * units.PageSize,
			BackingBytes:   backingPages * units.PageSize,
			BackingProfile: UFSFlashProfile(),
		},
	}, seed)
}

// TestZramCrossCheck drives a random store/load/discard/reserve workload
// against the zram backend while mirroring the stored-page set into a naive
// map model (the TestEdgeArenaCrossCheck pattern), and simultaneously runs
// a twin backend through the identical op sequence. The model pins the
// accounting contract — UsedSlots equals the live page count, a
// full-reject implies zero free slots, reads of stored pages never miss —
// and the twin pins determinism: every returned duration, error and
// counter must be bitwise equal across the two instances.
func TestZramCrossCheck(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		runZramCrossCheck(t, seed)
	}
}

func runZramCrossCheck(t *testing.T, seed uint64) {
	r := xrand.New(seed)
	// A small backend (64-page pool, 32-slot backing flash), so the random
	// workload reaches every route quickly: pool stores, incompressible
	// fallthrough, hotness-aware writeback, flash spill and ErrSwapFull
	// rejection.
	z := newTestZram(64, 32, seed)
	twin := newTestZram(64, 32, seed)

	// The candidate page set: three owners, enough pages to overflow the
	// pool twice over. Twin pages live in separate spaces with the same
	// owner names and indexes, so both backends see identical identities.
	type slot struct{ page, twinPage *mem.Page }
	var pages []slot
	for _, owner := range []string{"maps", "chrome", "spotify"} {
		as := mem.NewAddressSpace(owner)
		tas := mem.NewAddressSpace(owner)
		as.Reserve(96 * units.PageSize)
		tas.Reserve(96 * units.PageSize)
		for i := int64(0); i < 96; i++ {
			p, tp := as.PageAt(i), tas.PageAt(i)
			p.Hot = r.Bool(0.3)
			tp.Hot = p.Hot
			pages = append(pages, slot{p, tp})
		}
	}

	stored := map[*mem.Page]bool{} // the golden model: pages the backend holds
	var storedList []*mem.Page
	var reserved int64

	syncList := func() {
		kept := storedList[:0]
		for _, p := range storedList {
			if stored[p] {
				kept = append(kept, p)
			}
		}
		storedList = kept
	}

	check := func(step int) {
		t.Helper()
		if got, want := z.UsedSlots(), int64(len(stored)); got != want {
			t.Fatalf("seed %d step %d: UsedSlots %d, model holds %d", seed, step, got, want)
		}
		if z.FreeSlots() < 0 {
			t.Fatalf("seed %d step %d: negative FreeSlots %d", seed, step, z.FreeSlots())
		}
		st := z.BackendStats()
		if st.CompressedBytes < 0 || st.CompressedBytes > 64*units.PageSize {
			t.Fatalf("seed %d step %d: pool accounting out of range: %d", seed, step, st.CompressedBytes)
		}
		if st.StoredPages < 0 || st.StoredPages > int64(len(stored)) {
			t.Fatalf("seed %d step %d: StoredPages %d vs model %d", seed, step, st.StoredPages, len(stored))
		}
		if z.BackendStats() != twin.BackendStats() {
			t.Fatalf("seed %d step %d: twin stats diverged:\n a: %+v\n b: %+v",
				seed, step, z.BackendStats(), twin.BackendStats())
		}
	}

	for step := 0; step < 4000; step++ {
		switch op := r.Intn(10); {
		case op < 5: // store a page the backend does not hold
			s := pages[r.Intn(len(pages))]
			if stored[s.page] {
				continue
			}
			dur, err := z.WritePage(s.page, FaultState{})
			tdur, terr := twin.WritePage(s.twinPage, FaultState{})
			if dur != tdur || err != terr {
				t.Fatalf("seed %d step %d: twin write diverged: (%v,%v) vs (%v,%v)",
					seed, step, dur, err, tdur, terr)
			}
			switch err {
			case nil:
				stored[s.page] = true
				storedList = append(storedList, s.page)
			case ErrSwapFull:
				// A rejection must mean the device is genuinely out of
				// room right now.
				if z.FreeSlots() != 0 {
					t.Fatalf("seed %d step %d: WritePage rejected full with %d free slots",
						seed, step, z.FreeSlots())
				}
			default:
				t.Fatalf("seed %d step %d: unexpected write error %v", seed, step, err)
			}
		case op < 8: // load a stored page back (sometimes via prefetch path)
			if len(storedList) == 0 {
				continue
			}
			syncList()
			if len(storedList) == 0 {
				continue
			}
			p := storedList[r.Intn(len(storedList))]
			tp := pages[0].twinPage
			for _, s := range pages {
				if s.page == p {
					tp = s.twinPage
					break
				}
			}
			seqRead := r.Bool(0.3)
			dur, err := z.ReadPage(p, FaultState{}, seqRead)
			tdur, terr := twin.ReadPage(tp, FaultState{}, seqRead)
			if dur != tdur || err != terr {
				t.Fatalf("seed %d step %d: twin read diverged: (%v,%v) vs (%v,%v)",
					seed, step, dur, err, tdur, terr)
			}
			if err != nil {
				t.Fatalf("seed %d step %d: read of stored page failed: %v", seed, step, err)
			}
			delete(stored, p)
		case op == 8: // discard a stored page, or probe a missing one
			s := pages[r.Intn(len(pages))]
			err := z.Discard(s.page)
			terr := twin.Discard(s.twinPage)
			if err != terr {
				t.Fatalf("seed %d step %d: twin discard diverged: %v vs %v", seed, step, err, terr)
			}
			if stored[s.page] {
				if err != nil {
					t.Fatalf("seed %d step %d: discard of stored page failed: %v", seed, step, err)
				}
				delete(stored, s.page)
			} else if err != ErrSwapCorrupt {
				t.Fatalf("seed %d step %d: discard of missing page returned %v", seed, step, err)
			}
		case op == 9: // fault-style capacity churn
			if reserved > 0 && r.Bool(0.5) {
				z.UnreserveSlots(reserved)
				twin.UnreserveSlots(reserved)
				reserved = 0
			} else {
				n := int64(r.Intn(16))
				got := z.ReserveSlots(n)
				tgot := twin.ReserveSlots(n)
				if got != tgot {
					t.Fatalf("seed %d step %d: twin reserve diverged: %d vs %d", seed, step, got, tgot)
				}
				if got > n {
					t.Fatalf("seed %d step %d: reserved %d > requested %d", seed, step, got, n)
				}
				reserved += got
			}
			if z.ReservedSlots() != reserved {
				t.Fatalf("seed %d step %d: ReservedSlots %d, model %d", seed, step, z.ReservedSlots(), reserved)
			}
		}
		if step%250 == 249 {
			check(step)
		}
	}
	check(-1)

	// The workload must have exercised every route through the backend.
	st := z.BackendStats()
	if st.Fallthroughs == 0 {
		t.Errorf("seed %d: size-adaptive fallthrough never fired", seed)
	}
	if st.Writebacks == 0 {
		t.Errorf("seed %d: hotness-aware writeback never fired", seed)
	}
	if st.CompressCPU == 0 || st.DecompressCPU == 0 {
		t.Errorf("seed %d: compression cost model idle: %+v", seed, st)
	}
}
