// Package experiments reproduces every table and figure of the paper's
// evaluation (§2, §3, §4, §7 and the appendix) on the simulated device.
// Each exported function runs one experiment and returns printable rows;
// cmd/fleetsim and the repository-level benchmarks call them. DESIGN.md §3
// maps experiment ids to paper figures.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/apps"
	"fleetsim/internal/metrics"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
	"fleetsim/internal/xrand"
)

// Params are the shared experiment knobs.
type Params struct {
	// Scale divides the Pixel 3's memory sizes (and IO bandwidth) so runs
	// finish quickly; see android.Pixel3.
	Scale int64
	// Rounds is how many launch rounds the hot-launch experiments run
	// (the paper uses 20 launches per app).
	Rounds int
	// UseTime is how long each app is used in the foreground per switch
	// (the paper uses ~30 s; shorter values preserve the shape).
	UseTime time.Duration
	// PressureApps is the total population for the memory-pressure
	// experiments ("about 10 background apps" plus the measured set).
	PressureApps int
	// Seed drives all randomness.
	Seed uint64

	// Devices, Tiers and Policies parameterize the population campaign
	// (the "population" experiment); zero values mean the campaign
	// defaults (see internal/population.DefaultSpec). Tiers is a
	// "name:weight,..." list over the built-in device classes and
	// Policies a comma-separated policy list ("Android,Fleet").
	Devices  int
	Tiers    string
	Policies string

	// Backend selects the swap backend every experiment's device runs on:
	// "" or "flash" is the paper's UFS flash partition (Pixel3), "zram"
	// the compressed-RAM device (Pixel3Zram). Frontends validate the name
	// with vmem.ParseBackend before running.
	Backend string
}

// DefaultParams match the calibration used throughout the test suite.
func DefaultParams() Params {
	return Params{
		Scale:        32,
		Rounds:       10,
		UseTime:      10 * time.Second,
		PressureApps: 17,
		Seed:         1,
	}
}

// Quick returns a reduced-cost variant for smoke tests and benchmarks.
func (p Params) Quick() Params {
	p.Rounds = 4
	if p.Devices == 0 {
		p.Devices = 24 // population campaign: smoke-sized fleet
	}
	return p
}

// SyntheticFootprint is the manually created apps' Java heap size at scale
// (the paper uses 180 MB).
func (p Params) SyntheticFootprint() int64 {
	return 180 * units.MiB / p.Scale
}

// hotRun is the shared engine for the launch-time experiments: launch a
// population of apps, then switch among the measured subset in randomized
// rounds, recording every switch's latency. A measured app that lmkd killed
// re-launches cold, and that slow launch lands in the same distribution —
// exactly what a user (and ADB) would observe.
type hotRun struct {
	Policy android.PolicyKind
	Sys    *android.System
	// All switch latencies (ms) per measured app, cold relaunches
	// included.
	All map[string]*metrics.Sample
	// HotOnly keeps only true hot launches (app was cached).
	HotOnly map[string]*metrics.Sample
	// ColdCount / HotCount tally launch kinds over measured apps.
	ColdCount, HotCount int
}

// runHotLaunches executes the §7.2 protocol.
//
// population are the processes to keep alive (the paper's "memory
// pressure with about 10 background apps"); measured selects which apps'
// launches are recorded. mutate, when non-nil, edits the leg's config
// before the system is built: Fig. 3's no-swap device, §7.4's background
// heap growth, the extension studies' variants.
func runHotLaunches(p Params, policy android.PolicyKind, population []apps.Profile,
	measured map[string]bool, mutate func(*android.SystemConfig)) *hotRun {

	cfg := systemConfig(p, policy)
	cfg.Seed = p.Seed
	if mutate != nil {
		mutate(&cfg)
	}
	return runHotLaunchesWithSystem(p, android.NewSystem(cfg), population, measured)
}

// runHotLaunchesWithSystem is the protocol body over a prebuilt system
// (the chaos harness builds its own).
func runHotLaunchesWithSystem(p Params, sys *android.System, population []apps.Profile,
	measured map[string]bool) *hotRun {

	run := &hotRun{
		Policy:  sys.Cfg.Policy,
		Sys:     sys,
		All:     map[string]*metrics.Sample{},
		HotOnly: map[string]*metrics.Sample{},
	}
	procs := map[string]*android.Proc{}
	for _, pr := range population {
		procs[pr.Name] = sys.Launch(pr)
		sys.Use(p.UseTime)
	}

	order := xrand.New(p.Seed ^ 0x9e3779b97f4a7c15)
	for round := 0; round < p.Rounds; round++ {
		perm := order.Perm(len(population))
		for _, pi := range perm {
			pr := population[pi]
			wasAlive := procs[pr.Name].Alive()
			d, np := sys.SwitchTo(procs[pr.Name])
			procs[pr.Name] = np
			if measured == nil || measured[pr.Name] {
				ms := float64(d) / float64(time.Millisecond)
				sampleFor(run.All, pr.Name).Add(ms)
				if wasAlive {
					sampleFor(run.HotOnly, pr.Name).Add(ms)
					run.HotCount++
				} else {
					run.ColdCount++
				}
			}
			sys.Use(p.UseTime)
		}
	}
	// Publish the finished run's aggregates into the sim-telemetry bridge
	// (a no-op unless a daemon installed a registry). After the protocol
	// body on purpose: the bridge is write-only and post-hoc, so telemetry
	// cannot change what the run computed.
	sys.PublishTelemetry()
	return run
}

// systemConfig is the one place experiment legs turn Params into a system
// configuration: the policy's defaults at p.Scale, on the device p.Backend
// selects ("" or "flash" → the flash Pixel 3, "zram" → Pixel3Zram). Legs
// apply their own seed and mutations afterwards. An unknown backend panics;
// frontends validate the name with vmem.ParseBackend before dispatching.
func systemConfig(p Params, policy android.PolicyKind) android.SystemConfig {
	cfg := android.DefaultSystemConfig(policy, p.Scale)
	kind, ok := vmem.ParseBackend(p.Backend)
	if !ok {
		panic(fmt.Sprintf("experiments: unknown swap backend %q (valid: %v)", p.Backend, vmem.BackendNames()))
	}
	if kind == vmem.BackendZram {
		cfg.Device = android.Pixel3Zram(p.Scale)
	}
	return cfg
}

func sampleFor(m map[string]*metrics.Sample, k string) *metrics.Sample {
	s, ok := m[k]
	if !ok {
		s = &metrics.Sample{}
		m[k] = s
	}
	return s
}

// meanOverApps averages stat over a per-app sample map in sorted key
// order. Float addition is order-sensitive, so ranging over the map
// directly would make results differ bit-for-bit between runs.
func meanOverApps(m map[string]*metrics.Sample, stat func(*metrics.Sample) float64) float64 {
	if len(m) == 0 {
		return 0
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sum := 0.0
	for _, k := range keys {
		sum += stat(m[k])
	}
	return sum / float64(len(keys))
}

// pressurePopulation builds the standard pressure population: the named
// measured apps first, padded with other commercial apps up to
// p.PressureApps.
func pressurePopulation(p Params, measuredNames []string) ([]apps.Profile, map[string]bool) {
	all := apps.CommercialProfiles(p.Scale)
	measured := map[string]bool{}
	for _, n := range measuredNames {
		measured[n] = true
	}
	var pop []apps.Profile
	for _, pr := range all {
		if measured[pr.Name] {
			pop = append(pop, pr)
		}
	}
	for _, pr := range all {
		if len(pop) >= p.PressureApps {
			break
		}
		if !measured[pr.Name] {
			pop = append(pop, pr)
		}
	}
	// Beyond Table 3's 18 apps, pad with synthetic background services to
	// raise pressure further.
	for i := 0; len(pop) < p.PressureApps; i++ {
		pop = append(pop, apps.SyntheticProfile(fmt.Sprintf("bgservice-%d", i), 512, 64*units.MiB/p.Scale))
	}
	return pop, measured
}

// Fig13Apps are the 12 representative apps of Fig. 13.
var Fig13Apps = []string{
	"Twitter", "Facebook", "Instagram", "Line", "Youtube", "Spotify",
	"Twitch", "AmazonShop", "GoogleMaps", "Chrome", "Firefox", "AngryBirds",
}

// Fig16Apps are the remaining 6 commercial apps (appendix A).
var Fig16Apps = []string{
	"Telegram", "Tiktok", "Rave", "BigoLive", "LinkedIn", "CandyCrush",
}

// allCommercial returns the Table 3 app profiles at the experiment scale.
func allCommercial(p Params) []apps.Profile { return apps.CommercialProfiles(p.Scale) }
