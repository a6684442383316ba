// Package fleet is the public API of fleetsim, a Go reproduction of
// "More Apps, Faster Hot-Launch on Mobile Devices via Fore/Background-aware
// GC-Swap Co-design" (Huang et al., ASPLOS 2024).
//
// The library simulates Android's two-layer memory management — an
// ART-style region heap with copying garbage collection on top of a
// Linux-style page LRU with a flash swap partition — and implements three
// memory policies over it:
//
//   - Android: the stock design, where GC and the kernel's LRU swap are
//     independent and conflict (the GC's tracing faults swapped pages back
//     in; the LRU evicts pages the next hot-launch needs).
//   - Marvin: the bookmarking-GC / object-granularity-swap baseline
//     (Lebeck et al., USENIX ATC 2020).
//   - Fleet: the paper's contribution — a fore/background-aware GC-swap
//     co-design with a background-object GC (BGC) that never touches
//     swapped foreground objects, and a runtime-guided swap (RGS) that
//     groups launch-critical objects into pages and steers the kernel via
//     madvise.
//
// The API is organised by file:
//
//   - system.go — building and driving a simulated device (System, Proc,
//     app profiles, configs, tracing).
//   - experiments.go — the paper's tables and figures as pure runners,
//     the shared experiment registry, and the parallel fan-out knobs.
//   - faults.go — deterministic fault injection and the chaos harness.
//   - service.go — supervision and checkpointing (supervised fan-out,
//     campaigns, the checkpoint journal).
//
// # Quick start
//
//	sys := fleet.NewSystem(fleet.DefaultSystemConfig(fleet.PolicyFleet, 32))
//	twitter := fleet.AppByName("Twitter", 32)
//	p := sys.Launch(*twitter)      // cold launch
//	sys.Use(30 * time.Second)      // foreground usage
//	sys.Launch(fleet.SyntheticApp("filler", 512, 8<<20))
//	sys.Use(60 * time.Second)      // Twitter is cached; Fleet groups + swaps
//	d, _ := sys.SwitchTo(p)        // hot launch
//	fmt.Println("hot launch took", d)
//
// # Reproducing the paper
//
// Every table and figure of the paper's evaluation has a runner in this
// package (Fig2 … Fig16, Sec73, Sec74); cmd/fleetsim prints them and
// EXPERIMENTS.md records paper-versus-measured values. The simulation is
// fully deterministic: same Params, same output.
package fleet

import "fleetsim/internal/buildinfo"

// BuildInfo is the embedded build stamp (module version, VCS revision,
// dirty flag, Go version).
type BuildInfo = buildinfo.Info

// Build returns the build stamp of the running binary.
func Build() BuildInfo { return buildinfo.Read() }

// Version returns the module version of the running binary ("(devel)"
// for source builds).
func Version() string { return buildinfo.Read().Version }
