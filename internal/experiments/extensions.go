package experiments

import (
	"fmt"

	"fleetsim/internal/android"
	"fleetsim/internal/core"
	"fleetsim/internal/metrics"
	"fleetsim/internal/runner"
)

// ExtRow is one configuration of an extension study: hot-launch statistics
// plus kill counts under the standard §7.2 pressure protocol.
type ExtRow struct {
	Label    string
	MedianMs float64
	P90Ms    float64
	Kills    int
}

func extRow(label string, r *hotRun) ExtRow {
	return ExtRow{
		Label:    label,
		MedianMs: meanOverApps(r.All, func(s *metrics.Sample) float64 { return s.Median() }),
		P90Ms:    meanOverApps(r.All, func(s *metrics.Sample) float64 { return s.Percentile(90) }),
		Kills:    r.Sys.M.Kills,
	}
}

// ExtPrefetch compares stock Android, Android with an ASAP-style launch
// prefetcher, and Fleet. The prefetcher removes random launch faults (big
// median win over stock Android) but still pays bulk sequential IO and
// does nothing about the GC-swap conflict, so Fleet keeps both the lower
// launch floor and the capacity advantage — the paper's related-work
// argument (§8) made quantitative.
func ExtPrefetch(p Params) []ExtRow {
	return extLegs(p,
		extLeg{"Android", android.PolicyAndroid, nil},
		extLeg{"Android+prefetch", android.PolicyAndroid, func(c *android.SystemConfig) {
			c.LaunchPrefetch = true
		}},
		extLeg{"Fleet", android.PolicyFleet, nil},
	)
}

// extLeg is one labelled configuration of an extension study.
type extLeg struct {
	label  string
	policy android.PolicyKind
	mutate func(*android.SystemConfig)
}

// extLegs fans the configurations out on the pool, preserving order.
func extLegs(p Params, legs ...extLeg) []ExtRow {
	return runner.Map(legs, func(_ int, l extLeg) ExtRow {
		pop, measured := pressurePopulation(p, Fig13Apps)
		return extRow(l.label, runHotLaunches(p, l.policy, pop, measured, l.mutate))
	})
}

// ExtZram compares the flash-swap device against a vendor-style
// compressed-RAM ("RAM plus") device for both Android and Fleet: fast swap
// shrinks the launch-latency gap, but Fleet's GC-range restriction still
// pays off because zram steals DRAM and the GC-swap conflict persists.
// Each row names its device, so -backend does not move it.
func ExtZram(p Params) []ExtRow {
	flash := func(c *android.SystemConfig) { c.Device = android.Pixel3(p.Scale) }
	zram := func(c *android.SystemConfig) { c.Device = android.Pixel3Zram(p.Scale) }
	return extLegs(p,
		extLeg{"Android flash", android.PolicyAndroid, flash},
		extLeg{"Fleet flash", android.PolicyFleet, flash},
		extLeg{"Android zram", android.PolicyAndroid, zram},
		extLeg{"Fleet zram", android.PolicyFleet, zram},
	)
}

// ExtSwam compares the PSI-driven stock lmkd against the SWAM-style
// responsiveness monitor (reclaim and kill decisions driven by modeled
// refault + decompression stall pressure) on both swap backends. The
// compressed device is where the policies diverge most: decompression
// stalls are invisible to the refault-only PSI signal but first-class to
// SWAM.
func ExtSwam(p Params) []ExtRow {
	flash := func(c *android.SystemConfig) { c.Device = android.Pixel3(p.Scale) }
	zram := func(c *android.SystemConfig) { c.Device = android.Pixel3Zram(p.Scale) }
	return extLegs(p,
		extLeg{"Android flash", android.PolicyAndroid, flash},
		extLeg{"Swam flash", android.PolicySwam, flash},
		extLeg{"Android zram", android.PolicyAndroid, zram},
		extLeg{"Swam zram", android.PolicySwam, zram},
	)
}

// ExtDepthSweep measures end-to-end hot-launch latency under Fleet for a
// range of NRO depths — the system-level counterpart of the Fig. 6b
// analysis (DESIGN.md ablation).
func ExtDepthSweep(p Params) []ExtRow {
	var legs []extLeg
	for _, d := range []int{0, 2, 4, 8} {
		d := d
		legs = append(legs, extLeg{fmt.Sprintf("Fleet D=%d", d), android.PolicyFleet,
			func(c *android.SystemConfig) {
				fc := core.DefaultConfig()
				fc.NRODepth = d
				c.Fleet = fc
			}})
	}
	return extLegs(p, legs...)
}

// ExtAdviceAblation isolates RGS's two madvise halves: no COLD_RUNTIME
// (grouping only), no HOT_RUNTIME (active swap-out only), and full Fleet.
func ExtAdviceAblation(p Params) []ExtRow {
	return extLegs(p,
		extLeg{"Fleet full", android.PolicyFleet, nil},
		extLeg{"Fleet no-cold-advise", android.PolicyFleet, func(c *android.SystemConfig) {
			fc := core.DefaultConfig()
			fc.DisableColdAdvise = true
			c.Fleet = fc
		}},
		extLeg{"Fleet no-hot-advice", android.PolicyFleet, func(c *android.SystemConfig) {
			fc := core.DefaultConfig()
			fc.DisableHotAdvice = true
			c.Fleet = fc
		}},
	)
}

// FormatExt renders extension rows.
func FormatExt(title string, rows []ExtRow) string {
	out := title + "\n"
	for _, r := range rows {
		out += fmt.Sprintf("  %-22s median %7.0f ms   p90 %7.0f ms   kills %d\n",
			r.Label, r.MedianMs, r.P90Ms, r.Kills)
	}
	return out
}
