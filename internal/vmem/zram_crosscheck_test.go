package vmem

import (
	"fmt"
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

// zramModel drives a zram backend and a twin through the same op
// sequence while mirroring the stored-page set into a naive map model (the
// TestEdgeArenaCrossCheck pattern). The model pins the accounting
// contract: UsedSlots equals the live page count, a full reject implies
// zero free slots, reads of stored pages never miss, and Check passes
// after every op. The twin pins determinism: every returned duration,
// error and counter must be bitwise equal across the two instances.
type zramModel struct {
	t       *testing.T
	label   string
	step    int
	poolCap int64 // pool bytes

	z, twin *Zram
	pages   []zramSlot

	stored     map[*mem.Page]bool // the golden model: pages the backend holds
	storedList []*mem.Page
	reserved   int64
}

// zramSlot is one candidate page and its twin: the same owner name and
// index in a separate space, so both backends see identical identities.
type zramSlot struct{ page, twinPage *mem.Page }

// newZramModel builds a poolPages-page pool with backingPages of flash and
// perOwner candidate pages under each of three owners; hot says which
// pages the runtime marks hot.
func newZramModel(t *testing.T, label string, poolPages, backingPages, perOwner int64, seed uint64, hot func(int) bool) *zramModel {
	m := &zramModel{
		t: t, label: label, poolCap: poolPages * units.PageSize,
		z: newTestZram(poolPages, backingPages, seed), twin: newTestZram(poolPages, backingPages, seed),
		stored: map[*mem.Page]bool{},
	}
	for _, owner := range []string{"maps", "chrome", "spotify"} {
		as := mem.NewAddressSpace(owner)
		tas := mem.NewAddressSpace(owner)
		as.Reserve(perOwner * units.PageSize)
		tas.Reserve(perOwner * units.PageSize)
		for i := int64(0); i < perOwner; i++ {
			p, tp := as.PageAt(i), tas.PageAt(i)
			p.Hot = hot(len(m.pages))
			tp.Hot = p.Hot
			m.pages = append(m.pages, zramSlot{p, tp})
		}
	}
	return m
}

func (m *zramModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("%s step %d: %s", m.label, m.step, fmt.Sprintf(format, args...))
}

// store writes candidate i (modulo the set) unless the backend holds it.
func (m *zramModel) store(i int) {
	m.t.Helper()
	s := m.pages[i%len(m.pages)]
	if m.stored[s.page] {
		return
	}
	dur, err := m.z.WritePage(s.page, FaultState{})
	tdur, terr := m.twin.WritePage(s.twinPage, FaultState{})
	if dur != tdur || err != terr {
		m.fatalf("twin write diverged: (%v,%v) vs (%v,%v)", dur, err, tdur, terr)
	}
	switch err {
	case nil:
		m.stored[s.page] = true
		m.storedList = append(m.storedList, s.page)
	case ErrSwapFull:
		// A rejection must mean the device is genuinely out of room.
		if m.z.FreeSlots() != 0 {
			m.fatalf("WritePage rejected full with %d free slots", m.z.FreeSlots())
		}
	default:
		m.fatalf("unexpected write error %v", err)
	}
}

// load reads back stored page i (modulo the stored set), if any.
func (m *zramModel) load(i int, sequential bool) {
	m.t.Helper()
	kept := m.storedList[:0]
	for _, p := range m.storedList {
		if m.stored[p] {
			kept = append(kept, p)
		}
	}
	m.storedList = kept
	if len(kept) == 0 {
		return
	}
	p := kept[i%len(kept)]
	tp := m.pages[0].twinPage
	for _, s := range m.pages {
		if s.page == p {
			tp = s.twinPage
			break
		}
	}
	dur, err := m.z.ReadPage(p, FaultState{}, sequential)
	tdur, terr := m.twin.ReadPage(tp, FaultState{}, sequential)
	if dur != tdur || err != terr {
		m.fatalf("twin read diverged: (%v,%v) vs (%v,%v)", dur, err, tdur, terr)
	}
	if err != nil {
		m.fatalf("read of stored page failed: %v", err)
	}
	delete(m.stored, p)
}

// discard frees candidate i (modulo the set), or probes it when the
// backend does not hold it.
func (m *zramModel) discard(i int) {
	m.t.Helper()
	s := m.pages[i%len(m.pages)]
	err := m.z.Discard(s.page)
	if terr := m.twin.Discard(s.twinPage); err != terr {
		m.fatalf("twin discard diverged: %v vs %v", err, terr)
	}
	if m.stored[s.page] {
		if err != nil {
			m.fatalf("discard of stored page failed: %v", err)
		}
		delete(m.stored, s.page)
	} else if err != ErrSwapCorrupt {
		m.fatalf("discard of missing page returned %v", err)
	}
}

// reserve takes up to n slots out of circulation, as a zram-full fault
// does.
func (m *zramModel) reserve(n int64) {
	m.t.Helper()
	got, tgot := m.z.ReserveSlots(n), m.twin.ReserveSlots(n)
	if got != tgot {
		m.fatalf("twin reserve diverged: %d vs %d", got, tgot)
	}
	if got > max(n, 0) {
		m.fatalf("reserved %d > requested %d", got, n)
	}
	m.reserved += got
}

// unreserve returns every reserved slot.
func (m *zramModel) unreserve() {
	m.z.UnreserveSlots(m.reserved)
	m.twin.UnreserveSlots(m.reserved)
	m.reserved = 0
}

// check compares the backend with the model and its twin; runRandom and
// FuzzZramOps run it after every op.
func (m *zramModel) check() {
	m.t.Helper()
	z := m.z
	if err := z.Check(); err != nil {
		m.fatalf("Check: %v", err)
	}
	if err := m.twin.Check(); err != nil {
		m.fatalf("twin Check: %v", err)
	}
	if got, want := z.UsedSlots(), int64(len(m.stored)); got != want {
		m.fatalf("UsedSlots %d, model holds %d", got, want)
	}
	if z.FreeSlots() < 0 {
		m.fatalf("negative FreeSlots %d", z.FreeSlots())
	}
	if z.ReservedSlots() != m.reserved {
		m.fatalf("ReservedSlots %d, model %d", z.ReservedSlots(), m.reserved)
	}
	st := z.BackendStats()
	if st.CompressedBytes < 0 || st.CompressedBytes > m.poolCap {
		m.fatalf("pool accounting out of range: %d", st.CompressedBytes)
	}
	if st.StoredPages < 0 || st.StoredPages > int64(len(m.stored)) {
		m.fatalf("StoredPages %d vs model %d", st.StoredPages, len(m.stored))
	}
	if st != m.twin.BackendStats() {
		m.fatalf("twin stats diverged:\n a: %+v\n b: %+v", st, m.twin.BackendStats())
	}
}

// runRandom drives steps random ops: stores, loads (some sequential),
// discards and probes of missing pages, and capacity churn.
func (m *zramModel) runRandom(r *xrand.Rand, steps int, afterOp func()) {
	m.t.Helper()
	for m.step = 0; m.step < steps; m.step++ {
		switch op := r.Intn(10); {
		case op < 5:
			m.store(r.Intn(len(m.pages)))
		case op < 8:
			m.load(r.Intn(len(m.pages)), r.Bool(0.3))
		case op == 8:
			m.discard(r.Intn(len(m.pages)))
		default:
			if m.reserved > 0 && r.Bool(0.5) {
				m.unreserve()
			} else {
				m.reserve(int64(r.Intn(16)))
			}
		}
		m.check()
		if afterOp != nil {
			afterOp()
		}
	}
}

// requireEveryRoute fails unless the run exercised every route through the
// backend.
func (m *zramModel) requireEveryRoute() {
	m.t.Helper()
	st := m.z.BackendStats()
	if st.Fallthroughs == 0 {
		m.t.Errorf("%s: size-adaptive fallthrough never fired", m.label)
	}
	if st.Writebacks == 0 {
		m.t.Errorf("%s: hotness-aware writeback never fired", m.label)
	}
	if st.CompressCPU == 0 || st.DecompressCPU == 0 {
		m.t.Errorf("%s: compression cost model idle: %+v", m.label, st)
	}
}

// TestZramCrossCheck drives a random store/load/discard/reserve workload
// through zramModel. A small backend (64-page pool, 32-slot backing flash)
// and three owners' pages, enough to overflow the pool twice over, reach
// every route quickly: pool stores, incompressible fallthrough,
// hotness-aware writeback, flash spill and ErrSwapFull rejection.
func TestZramCrossCheck(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		r := xrand.New(seed)
		m := newZramModel(t, fmt.Sprintf("seed %d", seed), 64, 32, 96, seed,
			func(int) bool { return r.Bool(0.3) })
		m.runRandom(r, 4000, nil)
		m.requireEveryRoute()
	}
}

// TestZramClockStaysBounded runs the cross-check's workload long enough for
// the writeback clock to be compacted many times. After every op the clock
// must hold at most max(pool entries, minCompact) stale items (Check), and
// the twin must stay bitwise equal.
func TestZramClockStaysBounded(t *testing.T) {
	r := xrand.New(7)
	m := newZramModel(t, "long run", 64, 128, 128, 7, func(int) bool { return r.Bool(0.3) })
	var compactions, longest int
	prev := 0
	m.runRandom(r, 40000, func() {
		n := len(m.z.queue)
		if n < prev {
			compactions++
		}
		prev, longest = n, max(longest, n)
	})
	m.requireEveryRoute()
	if compactions < 5 {
		t.Errorf("clock compacted %d times in the long run; the test needs several", compactions)
	}
	t.Logf("clock compacted %d times, longest %d items", compactions, longest)
}

// FuzzZramOps decodes an op tape into stores, loads, discards, reserves
// and unreserves on a small pool (8 pages, 24 backing slots), running
// zramModel's checks (Check, the stored-set model, the twin) after every
// op.
func FuzzZramOps(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x10, 0x21, 0x32, 0x43})
	f.Add([]byte{0x00, 0x04, 0x08, 0x0c, 0x10, 0x14, 0x18, 0x1c, 0x20, 0x24, 0x28, 0x2c, 0x30, 0x34, 0x38, 0x3c,
		0x01, 0x05, 0x09, 0x03, 0x04, 0x11, 0x02, 0x06})
	// Fill the pool past writeback, squeeze it with a reservation, spill
	// to flash, then read everything back.
	f.Add([]byte{0x00, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0x90, 0xa0, 0xb0, 0xc0, 0xd0, 0xe0, 0xf0,
		0x93, 0x08, 0x18, 0x28, 0x38, 0x04, 0x01, 0x01, 0x01, 0x01, 0x05, 0x01, 0x01, 0x02, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newZramModel(t, "fuzz", 8, 24, 16, 1, func(i int) bool { return i%3 == 0 })
		for i, b := range data {
			m.step = i
			arg := int(b >> 3)
			switch b % 8 {
			case 0, 1, 2:
				m.store(arg)
			case 3:
				m.load(arg, b&0x80 != 0)
			case 4:
				m.load(arg, false)
			case 5:
				m.discard(arg)
			case 6:
				m.reserve(int64(arg % 12))
			case 7:
				m.unreserve()
			}
			m.check()
		}
	})
}
