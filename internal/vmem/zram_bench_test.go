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
