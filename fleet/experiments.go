// The paper's evaluation as a library: experiment parameters, one pure
// runner per table/figure, the shared name→runner registry both frontends
// resolve through, and the process-wide parallelism and campaign knobs.
package fleet

import (
	"fleetsim/internal/experiments"
	"fleetsim/internal/runner"
)

// Params are the experiment knobs shared by the Fig*/Sec* runners.
type Params = experiments.Params

// DefaultParams returns the calibrated experiment parameters (device
// scale 32, 10 rounds, 17-app pressure population).
func DefaultParams() Params { return experiments.DefaultParams() }

// Experiment runners — one per table/figure of the paper. See
// EXPERIMENTS.md for the paper-vs-measured record.
var (
	// Fig2 measures hot vs cold launch without pressure (§2.1).
	Fig2 = experiments.Fig2
	// Fig3 shows swap and Marvin degrading tail hot-launches (§3.1).
	Fig3 = experiments.Fig3
	// Fig4 is the object-access timeline with the background-GC spike
	// (§3.2).
	Fig4 = experiments.Fig4
	// Fig5 is the FGO/BGO lifetime and footprint study (§4.1).
	Fig5 = experiments.Fig5
	// Fig6a measures NRO/FYO hot-launch re-access coverage (§4.2).
	Fig6a = experiments.Fig6a
	// Fig6b sweeps the NRO depth parameter (§4.2).
	Fig6b = experiments.Fig6b
	// Fig7 samples the object-size distributions (§4.3).
	Fig7 = experiments.Fig7
	// Fig11a/b/c measure app-caching capacity (§7.1).
	Fig11a = experiments.Fig11a
	Fig11b = experiments.Fig11b
	Fig11c = experiments.Fig11c
	// Fig12a/b measure the background GC working set (§7.1).
	Fig12a = experiments.Fig12a
	Fig12b = experiments.Fig12b
	// Fig13 is the main hot-launch study (§7.2); Fig15 and Fig16 derive
	// the appendix statistics and the remaining apps' distributions.
	Fig13 = experiments.Fig13
	// Fig13n is the controlled speedup-vs-Java-share correlation.
	Fig13n = experiments.Fig13nControlled
	Fig15  = experiments.Fig15
	Fig16  = experiments.Fig16
	// Fig14 measures jank ratio and FPS (§7.3).
	Fig14 = experiments.Fig14
	// Sec73 measures CPU, memory and power overheads (§7.3).
	Sec73 = experiments.Sec73
	// Sec74 is the background heap-size sensitivity study (§7.4).
	Sec74 = experiments.Sec74

	// Extension studies beyond the paper's evaluation (see
	// EXPERIMENTS.md): an ASAP-style prefetch baseline, a compressed-RAM
	// swap device, the NRO-depth ablation and the madvise ablation.
	ExtPrefetch       = experiments.ExtPrefetch
	ExtZram           = experiments.ExtZram
	ExtDepthSweep     = experiments.ExtDepthSweep
	ExtAdviceAblation = experiments.ExtAdviceAblation
)

// Formatting helpers for the experiment results.
var (
	FormatFig2   = experiments.FormatFig2
	FormatFig3   = experiments.FormatFig3
	FormatFig5   = experiments.FormatFig5
	FormatFig6   = experiments.FormatFig6
	FormatFig7   = experiments.FormatFig7
	FormatFig11  = experiments.FormatFig11
	FormatFig12a = experiments.FormatFig12a
	FormatFig13  = experiments.FormatFig13
	FormatFig13n = experiments.FormatFig13n
	FormatFig14  = experiments.FormatFig14
	FormatFig15  = experiments.FormatFig15
	FormatSec73  = experiments.FormatSec73
	FormatExt    = experiments.FormatExt
	FormatSec74  = experiments.FormatSec74
)

// ExperimentSpec is one entry of the shared experiment registry: name,
// description and pure runner. cmd/fleetsim and cmd/fleetd both resolve
// experiment names through this table.
type ExperimentSpec = experiments.Spec

// Experiments returns the registry in table (paper) order.
func Experiments() []ExperimentSpec { return experiments.Registry() }

// ExperimentByName resolves one registered experiment (nil if unknown;
// names are case-insensitive).
func ExperimentByName(name string) *ExperimentSpec { return experiments.ByName(name) }

// ExperimentNames returns every registered experiment name in table order.
func ExperimentNames() []string { return experiments.Names() }

// RunPopulation runs the device-fleet campaign (the "population"
// experiment): Params in, rendered per-tier report out. Shards run under
// the campaign installed by SetCampaign.
func RunPopulation(p Params) string { return experiments.RunPopulation(p) }

// SweepCampaignKey is the campaign key for the figure sweeps' checkpoints.
func SweepCampaignKey(p Params) string { return experiments.SweepCampaignKey(p) }

// SetCampaign installs the campaign the registered experiments run under:
// the population campaign runs its shards under all of it (deadline,
// journal, interrupt), and the figure sweeps (Fig13/Fig15/Fig16) record
// their policy legs in its Journal, making interrupted runs resumable.
// The zero Campaign removes it.
func SetCampaign(c Campaign) { experiments.SetCampaign(c) }

// SetParallelism sets the process-wide worker count the experiment runners
// fan out on. n <= 0 means GOMAXPROCS; 1 forces fully serial execution.
// Results are bitwise-identical at every setting — every experiment leg is
// a pure function of its Params-derived seed.
func SetParallelism(n int) { runner.SetParallelism(n) }

// Parallelism reports the effective worker count.
func Parallelism() int { return runner.Parallelism() }
