// Package runner provides the deterministic worker pool the experiment
// layer fans out on. Each task is a pure function of its inputs (every
// experiment leg builds its own System and PRNG stream from an explicit
// seed), so the pool only has to deliver two properties:
//
//  1. bounded concurrency — at most Parallelism() tasks run at once;
//  2. ordered results — Map returns results in input order regardless of
//     completion order, so parallel output is bitwise-identical to serial.
//
// Parallelism is a process-wide knob (set once from the -parallel flag)
// rather than a per-call parameter so that library code can fan out
// without threading configuration through every signature. Nested Map
// calls (an experiment whose legs themselves call Map) each get their own
// goroutine budget instead of sharing a global semaphore: a shared
// semaphore could deadlock when an outer task blocks waiting for inner
// tasks that cannot acquire a slot. Mild oversubscription is benign —
// tasks are CPU-bound simulation with no locks in common.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelism is the configured worker count; 0 means "use GOMAXPROCS".
var parallelism atomic.Int64

// SetParallelism sets the process-wide worker count for subsequent Map
// calls. n <= 0 resets to the default (GOMAXPROCS at call time); n == 1
// forces fully serial in-caller execution.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int64(n))
}

// Parallelism returns the effective worker count: the configured value,
// or GOMAXPROCS when unset.
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map applies fn to every element of items on up to Parallelism() worker
// goroutines and returns the results in input order. With parallelism 1
// (or one item, or no items) everything runs inline on the caller's
// goroutine — no goroutines, no channels — so serial runs have exactly
// the serial execution profile. fn must not panic across tasks' shared
// state; tasks must be independent.
func Map[T, R any](items []T, fn func(int, T) R) []R {
	if len(items) == 0 {
		return nil
	}
	workers := Parallelism()
	if workers > len(items) {
		workers = len(items)
	}
	out := make([]R, len(items))
	if workers <= 1 {
		for i, it := range items {
			out[i] = fn(i, it)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				out[i] = fn(i, items[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// MapN is Map over the index range [0, n): convenient when the "items"
// are just leg numbers.
func MapN[R any](n int, fn func(int) R) []R {
	if n <= 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return Map(idx, func(_ int, i int) R { return fn(i) })
}
