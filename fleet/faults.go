// Deterministic fault injection and the chaos harness: fault profiles,
// plain and supervised chaos campaigns, and their report formats.
package fleet

import (
	"fleetsim/internal/experiments"
	"fleetsim/internal/faults"
)

// FaultProfile declares a deterministic fault schedule (swap stalls,
// device-offline windows, slot squeezes, pressure storms, app crashes).
// Attach one via SystemConfig.Faults; see internal/faults for semantics.
type FaultProfile = faults.Profile

// FaultProfiles returns the standard chaos suite (swap-stress,
// slot-squeeze, crash-monkey) at a device scale.
func FaultProfiles(scale int64) []FaultProfile { return faults.Profiles(scale) }

// ChaosRow summarises one (profile, seed) chaos run.
type ChaosRow = experiments.ChaosRow

// Chaos runs the fault-injection chaos harness: the standard profile suite
// over the given seed count, every cell executed twice to verify
// bit-for-bit determinism, with the cross-layer invariant checker on
// throughout.
func Chaos(p Params, seeds int) []ChaosRow { return experiments.Chaos(p, seeds) }

// ChaosPassed reports whether every chaos cell was deterministic and
// violation free.
func ChaosPassed(rows []ChaosRow) bool { return experiments.ChaosPassed(rows) }

// FormatChaos renders the chaos table plus a PASS/FAIL verdict line.
func FormatChaos(rows []ChaosRow) string { return experiments.FormatChaos(rows) }

// ChaosOpts configures a supervised chaos campaign: seeds per profile and
// the Campaign (per-cell deadline, checkpoint journal, interruption poll)
// its cells run under.
type ChaosOpts = experiments.ChaosOpts

// ChaosReport is the outcome of a supervised chaos campaign: rows, leg
// errors and resume/interrupt accounting.
type ChaosReport = experiments.ChaosReport

// ChaosSupervised runs the chaos suite under full supervision: panic
// isolation, per-cell deadlines, checkpoint/resume and digest-based
// divergence bisection.
func ChaosSupervised(p Params, opts ChaosOpts) ChaosReport {
	return experiments.ChaosSupervised(p, opts)
}

// FormatChaosReport renders a supervised campaign's outcome, including leg
// errors with stacks and the resume/interrupt accounting.
func FormatChaosReport(rep ChaosReport) string { return experiments.FormatChaosReport(rep) }

// ChaosCampaignKey canonically encodes the Params that determine a chaos
// campaign's results, for use as a checkpoint campaign key.
func ChaosCampaignKey(p Params) string { return experiments.ChaosCampaignKey(p) }
