package experiments

import (
	"fmt"
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/apps"
	"fleetsim/internal/cardtable"
	"fleetsim/internal/metrics"
	"fleetsim/internal/runner"
	"fleetsim/internal/units"
)

// Fig14Row is one app's frame-rendering metrics under the three policies.
type Fig14Row struct {
	App                                string
	AndroidJank, MarvinJank, FleetJank float64
	AndroidFPS, MarvinFPS, FleetFPS    float64
}

// Fig14 measures jank ratio and FPS during one minute of foreground use
// per app under moderate pressure (§7.3: Fleet ≈ Android; Marvin ~20%
// worse).
func Fig14(p Params) []Fig14Row {
	type frames struct{ jank, fps map[string]float64 }
	run := func(policy android.PolicyKind) frames {
		cfg := systemConfig(p, policy)
		cfg.Seed = p.Seed
		sys := android.NewSystem(cfg)
		pop, _ := pressurePopulation(p, Fig13Apps)
		procs := map[string]*android.Proc{}
		for _, pr := range pop {
			procs[pr.Name] = sys.Launch(pr)
			sys.Use(5 * time.Second)
		}
		for _, name := range Fig13Apps {
			_, np := sys.SwitchTo(procs[name])
			procs[name] = np
			sys.Use(60 * time.Second)
		}
		f := frames{jank: map[string]float64{}, fps: map[string]float64{}}
		for name, fs := range sys.M.Frames {
			f.jank[name] = fs.JankRatio()
			f.fps[name] = fs.FPS()
		}
		return f
	}
	legs := runner.MapN(3, func(i int) frames {
		return run([]android.PolicyKind{android.PolicyAndroid, android.PolicyMarvin, android.PolicyFleet}[i])
	})
	a, m, fl := legs[0], legs[1], legs[2]

	var rows []Fig14Row
	for _, name := range Fig13Apps {
		rows = append(rows, Fig14Row{
			App:         name,
			AndroidJank: a.jank[name], MarvinJank: m.jank[name], FleetJank: fl.jank[name],
			AndroidFPS: a.fps[name], MarvinFPS: m.fps[name], FleetFPS: fl.fps[name],
		})
	}
	return rows
}

// Sec73Result carries the §7.3 runtime-overhead numbers.
type Sec73Result struct {
	// GCCPUShare is GC CPU time over total CPU time, per policy.
	AndroidGCShare, MarvinGCShare, FleetGCShare float64
	// CardTableBytes is Fleet's fixed card-table overhead for the paper's
	// 4 GB heap (§7.3: 4 MB).
	CardTableBytes int64
	// PowerMilliwatts is the modelled average power draw per policy
	// (paper: Fleet 1851±143 mW vs Android 1817±197 mW).
	AndroidPower, MarvinPower, FleetPower float64
}

// Power-model constants: a base platform draw plus CPU-activity and
// swap-IO terms. Only relative differences between policies matter.
const (
	basePowerMW   = 1700.0
	cpuPowerMW    = 900.0 // at 100% single-core duty
	ioPowerMW     = 350.0 // while the swap device is busy
	cpuUsageScale = 4.0   // CPU accounting covers a fraction of real work
)

// Sec73 measures CPU, memory and power overheads with the fg/bg cycling
// protocol (30 s foreground, 30 s background per app).
func Sec73(p Params) Sec73Result {
	run := func(policy android.PolicyKind) (gcShare, power float64) {
		cfg := systemConfig(p, policy)
		cfg.Seed = p.Seed
		sys := android.NewSystem(cfg)
		names := Fig13Apps[:8]
		pop, _ := pressurePopulation(p, names)
		procs := map[string]*android.Proc{}
		for _, pr := range pop {
			procs[pr.Name] = sys.Launch(pr)
			sys.Use(10 * time.Second)
		}
		for cycle := 0; cycle < 2; cycle++ {
			for _, n := range names {
				_, np := sys.SwitchTo(procs[n])
				procs[n] = np
				sys.Use(30 * time.Second)
			}
		}
		var mutator, gcTime time.Duration
		for _, c := range sys.M.CPU {
			mutator += c.Mutator
			gcTime += c.GC
		}
		total := mutator + gcTime
		if total > 0 {
			gcShare = float64(gcTime) / float64(total)
		}
		wall := sys.Clock.Now()
		st := sys.VM.Stats()
		ioBusy := st.FaultStall + st.ReclaimIO + st.DirectReclaimStall
		cpuDuty := cpuUsageScale * float64(total) / float64(wall)
		if cpuDuty > 1 {
			cpuDuty = 1
		}
		ioDuty := float64(ioBusy) / float64(wall)
		if ioDuty > 1 {
			ioDuty = 1
		}
		power = basePowerMW + float64(cpuPowerMW*cpuDuty) + float64(ioPowerMW*ioDuty)
		return gcShare, power
	}
	res := Sec73Result{CardTableBytes: cardtable.DefaultTableBytes()}
	type leg struct{ gcShare, power float64 }
	legs := runner.MapN(3, func(i int) leg {
		gs, pw := run([]android.PolicyKind{android.PolicyAndroid, android.PolicyMarvin, android.PolicyFleet}[i])
		return leg{gs, pw}
	})
	res.AndroidGCShare, res.AndroidPower = legs[0].gcShare, legs[0].power
	res.MarvinGCShare, res.MarvinPower = legs[1].gcShare, legs[1].power
	res.FleetGCShare, res.FleetPower = legs[2].gcShare, legs[2].power
	return res
}

// Sec74Row is one configuration of the §7.4 heap-size sensitivity study.
type Sec74Row struct {
	Policy      string
	Growth      float64
	MaxCached   int
	HotMedianMs float64
}

// Sec74 evaluates caching capacity and hot-launch latency with the
// background heap-growth factor at 1.1× and 2×.
func Sec74(p Params) []Sec74Row {
	type cfgLeg struct {
		pol    android.PolicyKind
		growth float64
	}
	var legs []cfgLeg
	for _, pol := range []android.PolicyKind{android.PolicyAndroid, android.PolicyFleet} {
		for _, growth := range []float64{1.1, 2.0} {
			legs = append(legs, cfgLeg{pol, growth})
		}
	}
	// Each policy × growth configuration is a self-contained pair of runs
	// (capacity sweep + pressure protocol); fan the four legs out.
	return runner.Map(legs, func(_ int, l cfgLeg) Sec74Row {
		// Capacity with synthetic apps.
		cfg := systemConfig(p, l.pol)
		cfg.Seed = p.Seed
		cfg.BgHeapGrowth = l.growth
		sys := android.NewSystem(cfg)
		maxCached := 0
		for i := 0; i < 24; i++ {
			sys.Launch(apps.SyntheticProfile(fmt.Sprintf("s%d", i), 2048, p.SyntheticFootprint()))
			sys.Use(p.UseTime + 5*time.Second)
			if n := sys.AliveCount(); n > maxCached {
				maxCached = n
			}
		}

		// Hot launch medians with the pressure protocol.
		pq := p.Quick()
		pop, measured := pressurePopulation(pq, Fig13Apps[:6])
		run := runHotLaunches(pq, l.pol, pop, measured, func(c *android.SystemConfig) {
			c.BgHeapGrowth = l.growth
		})
		med := meanOverApps(run.All, func(s *metrics.Sample) float64 { return s.Median() })
		return Sec74Row{
			Policy:      l.pol.String(),
			Growth:      l.growth,
			MaxCached:   maxCached,
			HotMedianMs: med,
		}
	})
}

// FormatFig14 renders the frame metrics.
func FormatFig14(rows []Fig14Row) string {
	out := "Fig 14 — jank ratio / FPS\n"
	var aj, mj, fj, af, mf, ff float64
	for _, r := range rows {
		out += fmt.Sprintf("  %-12s jank A/M/F %4.1f%%/%4.1f%%/%4.1f%%   fps %4.0f/%4.0f/%4.0f\n",
			r.App, 100*r.AndroidJank, 100*r.MarvinJank, 100*r.FleetJank,
			r.AndroidFPS, r.MarvinFPS, r.FleetFPS)
		aj += r.AndroidJank
		mj += r.MarvinJank
		fj += r.FleetJank
		af += r.AndroidFPS
		mf += r.MarvinFPS
		ff += r.FleetFPS
	}
	n := float64(len(rows))
	if n > 0 {
		out += fmt.Sprintf("  %-12s jank A/M/F %4.1f%%/%4.1f%%/%4.1f%%   fps %4.0f/%4.0f/%4.0f\n",
			"AVG", 100*aj/n, 100*mj/n, 100*fj/n, af/n, mf/n, ff/n)
	}
	return out
}

// FormatSec73 renders the runtime-overhead summary.
func FormatSec73(r Sec73Result) string {
	return fmt.Sprintf(`§7.3 — runtime overheads
  GC CPU share: Android %.2f%%  Marvin %.2f%%  Fleet %.2f%%
  Fleet card table for a 4 GiB heap: %s (paper: 4 MB)
  Power: Android %.0f mW  Marvin %.0f mW  Fleet %.0f mW (paper: 1817 vs 1851 mW)
`,
		100*r.AndroidGCShare, 100*r.MarvinGCShare, 100*r.FleetGCShare,
		units.Bytes(r.CardTableBytes),
		r.AndroidPower, r.MarvinPower, r.FleetPower)
}

// FormatSec74 renders the sensitivity study.
func FormatSec74(rows []Sec74Row) string {
	out := "§7.4 — background heap-size sensitivity\n"
	for _, r := range rows {
		out += fmt.Sprintf("  %-8s growth %.1fx  max cached %2d  hot median %6.0f ms\n",
			r.Policy, r.Growth, r.MaxCached, r.HotMedianMs)
	}
	return out
}
