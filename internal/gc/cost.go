// Package gc implements the collector framework shared by every policy in
// the simulator: the tracing engine (DFS and BFS), copying evacuation built
// on heap.Evacuator, Android's minor/major concurrent-copying collectors
// with a remembered set, and the heap-growth threshold controller. Fleet's
// background-object GC and grouping GC (internal/core) and Marvin's
// bookmarking GC (internal/marvin) are built from these pieces.
package gc

import (
	"time"

	"fleetsim/internal/vmem"
)

// Cost-model constants. These are CPU-side costs; IO costs come from
// internal/vmem's fault accounting. Values are representative of a mobile
// big core (~2 GHz) and only need to be mutually consistent — the paper's
// comparisons are ratios between policies sharing this model.
const (
	// VisitCPU is the fixed per-object tracing cost (load header, test
	// mark bit, enqueue).
	VisitCPU = 30 * time.Nanosecond
	// CopyCPU is the fixed per-object evacuation bookkeeping cost on top
	// of the byte-copy DRAM cost.
	CopyCPU = 25 * time.Nanosecond
	// RootScanCPU is the per-root cost of the initial STW root scan.
	RootScanCPU = 15 * time.Nanosecond
	// CardScanCPU is the per-dirty-card scan cost.
	CardScanCPU = 60 * time.Nanosecond
	// FlipPause is the fixed stop-the-world "flip" pause of ART's
	// concurrent-copying GC (thread-root capture + region flip).
	FlipPause = 1200 * time.Microsecond
	// FinalPause is the fixed end-of-cycle STW (reference processing,
	// finalisers).
	FinalPause = 400 * time.Microsecond
)

// visitCostTabSize bounds the memoised visit-cost table: one page. Almost
// every object in the modelled apps is sub-page, so the hot path is a table
// load instead of the float divide inside TransferTime.
const visitCostTabSize = 4096

// visitCostTab caches visitCost for sub-page sizes. Entries are computed
// with the exact formula the slow path uses, so memoisation cannot perturb
// simulation results.
var visitCostTab = func() [visitCostTabSize]time.Duration {
	var t [visitCostTabSize]time.Duration
	for i := range t {
		t[i] = VisitCPU + vmem.DRAMCost(int64(i))
	}
	return t
}()

// visitCost returns CPU time to trace one object of the given size.
func visitCost(size int32) time.Duration {
	if uint32(size) < visitCostTabSize {
		return visitCostTab[size]
	}
	return VisitCPU + vmem.DRAMCost(int64(size))
}

// CopyCost returns CPU time to evacuate one object of the given size
// (read + write).
func CopyCost(size int32) time.Duration {
	return CopyCPU + vmem.DRAMCost(2*int64(size))
}
