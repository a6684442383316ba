package heap

import (
	"testing"
	"time"

	"fleetsim/internal/mem"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
	"fleetsim/internal/xrand"
)

// BenchmarkHeapBuild measures the heap's allocation and reference-store
// path: each op builds a fresh heap of 64k objects with seeded lognormal
// sizes (the Fig. 7 commercial distribution: median ≈ 48 B, clamped to
// 16 B–16 KiB), linked with AddRef into 64-object chains hanging off one
// root, on a manager with DRAM to spare so no reclaim runs.
//
// The append variant grows the object table, the dense per-object tables
// and the edge arena one append at a time, so its B/op is dominated by
// the copies that doubling leaves behind. The grown variant first calls
// Grow, as apps.BuildInitial does, so each table is allocated once at its
// final size.
func BenchmarkHeapBuild(b *testing.B) {
	const nObjects, chainLen = 1 << 16, 64
	r := xrand.New(1)
	sizes := make([]int32, nObjects)
	for i := range sizes {
		s := int32(r.LogNormal(3.9, 1.1))
		sizes[i] = min(max(s, 16), 16*1024)
	}
	for _, bc := range []struct {
		name string
		grow bool
	}{{"append", false}, {"grown", true}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vm := vmem.NewManager(mem.NewPhysical(units.GiB), vmem.NewSwapDevice(vmem.DefaultSwapConfig()))
				h := New(mem.NewAddressSpace("bench"), vm)
				if bc.grow {
					// Every chain link but the tail holds a two-slot
					// span, and the root's span doubles to 1024 slots,
					// 2046 with its relocated copies: 2·nObjects−2 slots.
					h.Grow(1+nObjects, 2*nObjects)
				}
				root, _, _ := h.Alloc(64, EpochForeground, 0)
				h.AddRoot(root)
				prev := root
				for j, size := range sizes {
					id, _, _ := h.Alloc(size, EpochForeground, 0)
					if j%chainLen == 0 {
						prev = root
					}
					h.AddRef(prev, id, 0)
					prev = id
				}
			}
		})
	}
}

// BenchmarkHeapAccess measures the mutator's object access: each op is one
// Access, a read or (three times in ten) a write, of a seeded random live
// object on a vmem-mapped heap of 64k objects with the Fig. 7 size
// distribution, on a manager with DRAM to spare so every touched page is
// resident. Before timing, four rounds each kill a random half of the
// live objects and allocate as many fresh ones, so IDs are recycled and
// no longer follow allocation (address) order, as on a heap that has run
// through collections.
func BenchmarkHeapAccess(b *testing.B) {
	const nObjects, rounds, nAccesses = 1 << 16, 4, 1 << 16
	r := xrand.New(1)
	size := func() int32 { return min(max(int32(r.LogNormal(3.9, 1.1)), 16), 16*1024) }
	vm := vmem.NewManager(mem.NewPhysical(units.GiB), vmem.NewSwapDevice(vmem.DefaultSwapConfig()))
	h := New(mem.NewAddressSpace("bench"), vm)
	live := make([]ObjectID, 0, nObjects)
	for len(live) < nObjects {
		id, _, _ := h.Alloc(size(), EpochForeground, 0)
		live = append(live, id)
	}
	for round := 0; round < rounds; round++ {
		kept := live[:0]
		for _, id := range live {
			if r.Bool(0.5) {
				h.KillObject(id)
			} else {
				kept = append(kept, id)
			}
		}
		live = kept
		for len(live) < nObjects {
			id, _, _ := h.Alloc(size(), EpochForeground, 0)
			live = append(live, id)
		}
	}
	ids := make([]ObjectID, nAccesses)
	writes := make([]bool, nAccesses)
	for i := range ids {
		ids[i] = live[r.Intn(len(live))]
		writes[i] = r.Bool(0.3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (nAccesses - 1)
		if _, err := h.Access(ids[j], writes[j], time.Duration(i)); err != nil {
			b.Fatal(err)
		}
	}
}
