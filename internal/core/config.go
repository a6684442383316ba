// Package core implements Fleet, the paper's contribution: a
// fore/background-aware GC-swap co-design made of two cooperating parts
// (§5):
//
//   - Background-object GC (BGC): once an app is backgrounded and its
//     foreground objects (FGO) have been compacted into dedicated regions,
//     the collector's tracing range is restricted to background objects
//     (BGO). References from FGO into BGO are found through a dedicated
//     card table maintained by a write barrier, so the GC never touches —
//     and never faults in — swapped foreground pages.
//
//   - Runtime-guided swap (RGS): the first GC after backgrounding is a
//     BFS grouping collection that classifies every live object as NRO
//     (within depth D of the roots), FYO (allocated just before the
//     switch), WS (in active use by background work) or cold, evacuates
//     each class into its own regions, and then steers the kernel through
//     madvise: cold regions are proactively swapped out (COLD_RUNTIME)
//     while launch regions are rotated to the hot end of the LRU
//     (HOT_RUNTIME) so the next hot-launch finds them resident.
package core

import "time"

// Table 2's timing parameters. The runtime owns the clock, so it schedules
// Fleet's lifecycle with these.
const (
	// BackgroundWait is Ts: how long after the switch to background Fleet
	// waits before running the grouping GC, so the app settles.
	BackgroundWait = 10 * time.Second
	// ForegroundWait is Tf: how long after the switch to foreground Fleet
	// waits before standing down.
	ForegroundWait = 3 * time.Second
	// AdvisePeriod is how often RGS re-issues HOT_RUNTIME advice for
	// launch regions while the app stays backgrounded (§5.3.2 "RGS will
	// periodically execute the madvise system call").
	AdvisePeriod = 5 * time.Second
)

// Config carries the Fleet settings the evaluation varies: the NRO depth
// D (Table 2's default; Fig. 6b sweeps it) and the two RGS advice
// ablation switches. Ts, Tf and CARD_SHIFT are fixed at Table 2's values.
type Config struct {
	// NRODepth is D: the maximum BFS depth from the roots for an object to
	// be classified NRO. 0 is valid (only the roots are near-root
	// objects).
	NRODepth int

	// DisableColdAdvise is an ablation switch: grouping still happens but
	// COLD_RUNTIME is never issued (cold pages are left to the kernel
	// LRU).
	DisableColdAdvise bool
	// DisableHotAdvice is an ablation switch: launch regions get no
	// HOT_RUNTIME protection.
	DisableHotAdvice bool
}

// DefaultConfig returns Table 2's settings.
func DefaultConfig() Config {
	return Config{NRODepth: 2}
}

// Class is an object's RGS classification (§5.3.1).
type Class uint8

// Object classes.
const (
	ClassCold Class = iota
	ClassNRO
	ClassFYO
	ClassWS
)

func (c Class) String() string {
	switch c {
	case ClassNRO:
		return "NRO"
	case ClassFYO:
		return "FYO"
	case ClassWS:
		return "WS"
	default:
		return "cold"
	}
}
