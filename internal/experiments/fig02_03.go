package experiments

import (
	"fmt"
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/apps"
	"fleetsim/internal/metrics"
	"fleetsim/internal/runner"
)

// Fig2Row is one bar pair of Figure 2: average hot and cold launch time
// for an app, with standard deviations (the paper repeats each launch 20
// times).
type Fig2Row struct {
	App    string
	HotMs  float64
	HotSD  float64
	ColdMs float64
	ColdSD float64
}

// Fig2 measures hot-launch versus cold-launch with no memory pressure
// (§2.1): each app runs alone with a single small filler app to switch
// away to, and is re-launched Rounds times each way.
func Fig2(p Params) []Fig2Row {
	profiles := apps.CommercialProfiles(p.Scale)
	// Each app gets its own System seeded only from Params, so the rows are
	// independent tasks; runner.Map keeps them in Fig13Apps order.
	return runner.Map(Fig13Apps, func(_ int, name string) Fig2Row {
		var target apps.Profile
		for _, pr := range profiles {
			if pr.Name == name {
				target = pr
			}
		}
		cfg := systemConfig(p, android.PolicyAndroid)
		cfg.Seed = p.Seed
		sys := android.NewSystem(cfg)
		filler := apps.SyntheticProfile("filler", 512, p.SyntheticFootprint()/8)

		proc := sys.Launch(target)
		sys.Use(p.UseTime)
		fp := sys.Launch(filler)
		sys.Use(p.UseTime)

		hot := &metrics.Sample{}
		cold := &metrics.Sample{}
		for i := 0; i < p.Rounds; i++ {
			// Hot: app is cached, switch to it.
			d, np := sys.SwitchTo(proc)
			proc = np
			hot.Add(float64(d) / float64(time.Millisecond))
			sys.Use(p.UseTime)
			_, fp = sys.SwitchTo(fp)
			sys.Use(p.UseTime)

			// Cold: explicitly terminate first (the paper kills the app
			// before the launch).
			sys.Kill(proc)
			d, np = sys.SwitchTo(proc)
			proc = np
			cold.Add(float64(d) / float64(time.Millisecond))
			sys.Use(p.UseTime)
			_, fp = sys.SwitchTo(fp)
			sys.Use(p.UseTime)
		}
		// Write-only telemetry bridge; no-op unless a registry is installed.
		sys.PublishTelemetry()
		return Fig2Row{
			App:    name,
			HotMs:  hot.Mean(),
			HotSD:  hot.StdDev(),
			ColdMs: cold.Mean(),
			ColdSD: cold.StdDev(),
		}
	})
}

// Fig3Row is one app of Figure 3: the 90th-percentile tail hot-launch time
// under the three §3.1 configurations.
type Fig3Row struct {
	App      string
	NoSwapMs float64 // Android without swap
	SwapMs   float64 // Android with swap
	MarvinMs float64
}

// Fig3 reproduces the motivation result: enabling swap (or Marvin) makes
// the tail hot-launch dramatically worse than running without swap. Tail
// is measured over true hot launches (the paper terminology); an app that
// was killed simply cannot hot-launch and re-enters the distribution once
// it is cached again.
func Fig3(p Params) []Fig3Row {
	pop, measured := pressurePopulation(p, Fig13Apps)

	// Without swap the device cannot hold the full pressure population at
	// all (the paper's Android caches only ~11 apps without swap), so the
	// no-swap baseline runs at the population it can sustain — matching
	// the paper's setting where its hot launches exist and are fast.
	pns := p
	if pns.PressureApps > 12 {
		pns.PressureApps = 12
	}
	popNS, measuredNS := pressurePopulation(pns, Fig13Apps)
	legs := runner.MapN(3, func(i int) *hotRun {
		switch i {
		case 0:
			return runHotLaunches(pns, android.PolicyAndroid, popNS, measuredNS, func(c *android.SystemConfig) {
				c.Device = android.Pixel3NoSwap(pns.Scale)
			})
		case 1:
			return runHotLaunches(p, android.PolicyAndroid, pop, measured, nil)
		default:
			return runHotLaunches(p, android.PolicyMarvin, pop, measured, nil)
		}
	})
	noswap, swap, marvin := legs[0], legs[1], legs[2]

	p90 := func(r *hotRun, app string) float64 {
		if s := r.HotOnly[app]; s != nil && s.N() > 0 {
			return s.Percentile(90)
		}
		// The app never managed a hot launch under this policy (it was
		// always killed first) — report its cold tail, which is what the
		// user experienced.
		if s := r.All[app]; s != nil && s.N() > 0 {
			return s.Percentile(90)
		}
		return 0
	}

	var rows []Fig3Row
	for _, app := range Fig13Apps {
		rows = append(rows, Fig3Row{
			App:      app,
			NoSwapMs: p90(noswap, app),
			SwapMs:   p90(swap, app),
			MarvinMs: p90(marvin, app),
		})
	}
	return rows
}

// FormatFig2 renders Fig2 rows as the paper's bar values.
func FormatFig2(rows []Fig2Row) string {
	out := "Fig 2 — average hot vs cold launch (ms)\n"
	for _, r := range rows {
		out += fmt.Sprintf("  %-12s hot %7.0f ± %-5.0f cold %7.0f ± %-5.0f (%.1fx)\n",
			r.App, r.HotMs, r.HotSD, r.ColdMs, r.ColdSD, r.ColdMs/r.HotMs)
	}
	return out
}

// FormatFig3 renders Fig3 rows.
func FormatFig3(rows []Fig3Row) string {
	out := "Fig 3 — 90th percentile tail hot-launch (ms)\n"
	for _, r := range rows {
		out += fmt.Sprintf("  %-12s w/o swap %7.0f   w/ swap %7.0f   Marvin %7.0f\n",
			r.App, r.NoSwapMs, r.SwapMs, r.MarvinMs)
	}
	return out
}
