package vmem

import (
	"testing"

	"fleetsim/internal/mem"
	"fleetsim/internal/units"
)

// BenchmarkZramSwapOut measures the compressed backend's steady-state
// store/load round trip — the seeded compressibility hash, pool
// accounting, size-adaptive fallthrough and the writeback clock — over a
// working set twice the pool, so every store can trigger writeback the
// way a pressured device does. The CI bench job gates this against the
// checked-in BENCH_5.json baseline.
func BenchmarkZramSwapOut(b *testing.B) {
	const poolPages = 256
	z := newTestZram(poolPages, 2*poolPages, 1)

	as := mem.NewAddressSpace("bench")
	as.Reserve(2 * poolPages * units.PageSize)
	pages := make([]*mem.Page, 2*poolPages)
	stored := make([]bool, len(pages))
	for i := range pages {
		pages[i] = as.PageAt(int64(i))
		pages[i].Hot = i%4 == 0
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(pages)
		if stored[k] {
			if _, err := z.ReadPage(pages[k], FaultState{}, false); err != nil {
				b.Fatal(err)
			}
			stored[k] = false
			continue
		}
		if _, err := z.WritePage(pages[k], FaultState{}); err == nil {
			stored[k] = true
		}
	}
}

// TestZramStoreLoadAllocatesNothing stores a working set four times the
// pool (so stores write back, some hot pages get their second chance and
// some pages fall through to flash), then reads it all back. Once the
// index and the clock have grown to that working set, a round trip must
// not allocate: the index holds entries by value and the clock is
// compacted in place.
func TestZramStoreLoadAllocatesNothing(t *testing.T) {
	const poolPages = 64
	z := newTestZram(poolPages, 8*poolPages, 1)
	as := mem.NewAddressSpace("alloc")
	as.Reserve(4 * poolPages * units.PageSize)
	pages := make([]*mem.Page, 4*poolPages)
	for i := range pages {
		pages[i] = as.PageAt(int64(i))
		pages[i].Hot = i%4 == 0
	}
	round := func() {
		for _, p := range pages {
			if _, err := z.WritePage(p, FaultState{}); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range pages {
			if _, err := z.ReadPage(p, FaultState{}, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 4; i++ {
		round()
	}
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Errorf("a warmed store/load round trip of %d pages allocates %v times", len(pages), n)
	}
	st := z.BackendStats()
	if st.Writebacks == 0 || st.Fallthroughs == 0 {
		t.Fatalf("the round trip missed a route: %+v", st)
	}
	if err := z.Check(); err != nil {
		t.Fatal(err)
	}
}
