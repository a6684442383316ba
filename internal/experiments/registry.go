// The experiment registry: the single name → runner dispatch table shared
// by every frontend. cmd/fleetsim resolves positional arguments through it,
// cmd/fleetd resolves job specs through it, and the usage/error listings of
// both are generated from it — so adding an experiment here is the whole
// job of exposing it everywhere.
//
// Registered runners are pure: one Params in, one rendered string out, no
// flags, no global state, no I/O. Frontend-specific entries that need any
// of those (the chaos campaign with its checkpoint store, the systrace CSV
// dump) stay in their frontend.

package experiments

import (
	"fmt"
	"strings"

	"fleetsim/internal/apps"
	"fleetsim/internal/cardtable"
	"fleetsim/internal/core"
)

// Spec is one registered experiment: a stable name, a one-line
// description for usage listings, and the pure runner.
type Spec struct {
	Name string
	Desc string
	// Run executes the experiment and returns its rendered output
	// (tables or CSV). Pure: same Params, same bytes.
	Run func(p Params) string
	// CSV marks bulk CSV dumps that frontends exclude from "run
	// everything" sweeps (they are opt-in by name).
	CSV bool
	// OptIn marks non-CSV experiments that are likewise excluded from
	// "run everything" sweeps — campaigns whose cost scales with their
	// own parameters rather than the shared Params.
	OptIn bool
}

// registry is the table-ordered experiment list (paper order: figures,
// tables, sections, then extensions).
var registry = []Spec{
	{Name: "fig2", Desc: "hot vs cold launch times", Run: func(p Params) string {
		return FormatFig2(Fig2(p))
	}},
	{Name: "fig3", Desc: "tail hot-launch: w/o swap, w/ swap, Marvin", Run: func(p Params) string {
		return FormatFig3(Fig3(p))
	}},
	{Name: "fig4", Desc: "object accesses over time (CSV)", CSV: true, Run: func(p Params) string {
		res := Fig4(p)
		var b strings.Builder
		fmt.Fprintf(&b, "# fore->back %.0fs, GC %.0fs, back->fore %.0fs\n", res.ToBackSec, res.GCSec, res.ToFrontSec)
		b.WriteString("time_sec,object_seq,gc\n")
		for _, pt := range res.Points {
			g := 0
			if pt.GC {
				g = 1
			}
			fmt.Fprintf(&b, "%.2f,%d,%d\n", pt.TimeSec, pt.Seq, g)
		}
		return b.String()
	}},
	{Name: "fig5", Desc: "FGO/BGO lifetime and footprint", Run: func(p Params) string {
		return FormatFig5(Fig5(p))
	}},
	{Name: "fig6", Desc: "NRO/FYO re-access coverage + depth sweep", Run: func(p Params) string {
		return FormatFig6(Fig6a(p), Fig6b(p))
	}},
	{Name: "fig7", Desc: "object size CDFs", Run: func(p Params) string {
		return FormatFig7(Fig7(p))
	}},
	{Name: "fig11a", Desc: "caching capacity, 2048B-object apps", Run: func(p Params) string {
		return FormatFig11("Fig 11a — caching capacity (large objects)", Fig11a(p))
	}},
	{Name: "fig11b", Desc: "caching capacity, 512B-object apps", Run: func(p Params) string {
		return FormatFig11("Fig 11b — caching capacity (small objects)", Fig11b(p))
	}},
	{Name: "fig11c", Desc: "caching capacity, commercial apps", Run: func(p Params) string {
		return FormatFig11("Fig 11c — caching capacity (commercial apps)", Fig11c(p))
	}},
	{Name: "fig12a", Desc: "background GC working set", Run: func(p Params) string {
		return FormatFig12a(Fig12a(p))
	}},
	{Name: "fig12b", Desc: "Twitch access timeline (CSV)", CSV: true, Run: func(p Params) string {
		res := Fig12b(p)
		var b strings.Builder
		b.WriteString("time_sec,android_gc,fleet_gc,android_mutator\n")
		n := len(res.Android)
		if len(res.Fleet) < n {
			n = len(res.Fleet)
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "%.0f,%d,%d,%d\n", res.Android[i].TimeSec, res.Android[i].GC, res.Fleet[i].GC, res.Android[i].Mutator)
		}
		return b.String()
	}},
	{Name: "fig13", Desc: "hot-launch study under pressure (+13m,13n)", Run: func(p Params) string {
		return FormatFig13(Fig13(p)) + FormatFig13n(Fig13nControlled(p))
	}},
	{Name: "fig14", Desc: "jank ratio and FPS", Run: func(p Params) string {
		return FormatFig14(Fig14(p))
	}},
	{Name: "fig15", Desc: "percentile speedups", Run: func(p Params) string {
		return FormatFig15(Fig15(Fig13(p)))
	}},
	{Name: "fig16", Desc: "hot-launch distributions, remaining 6 apps", Run: func(p Params) string {
		return FormatFig13(Fig16(p))
	}},
	{Name: "tab1", Desc: "comparison methods", Run: func(Params) string {
		return `Table 1 — comparison methods
  Android: native GC;            page-granularity swap; LRU scheme
  Marvin:  bookmarking GC;       object-granularity swap; object-LRU scheme
  Fleet:   background-object GC; grouped-page swap;       runtime-guided scheme
`
	}},
	{Name: "tab2", Desc: "Fleet default parameters", Run: func(Params) string {
		return fmt.Sprintf(`Table 2 — Fleet defaults
  NRO depth D:          %d
  Background wait Ts:   %v
  Foreground wait Tf:   %v
  CARD_SHIFT:           %d
  Region size:          256 KiB
`, core.DefaultConfig().NRODepth, core.BackgroundWait, core.ForegroundWait, cardtable.DefaultCardShift)
	}},
	{Name: "tab3", Desc: "commercial app set", Run: func(p Params) string {
		var b strings.Builder
		b.WriteString("Table 3 — commercial apps\n")
		for _, pr := range apps.CommercialProfiles(p.Scale) {
			fmt.Fprintf(&b, "  %-12s %-14s java %3.0f%% of footprint\n", pr.Name, pr.Category, 100*pr.JavaHeapFrac)
		}
		return b.String()
	}},
	{Name: "sec73", Desc: "CPU / memory / power overheads", Run: func(p Params) string {
		return FormatSec73(Sec73(p))
	}},
	{Name: "sec74", Desc: "background heap-size sensitivity", Run: func(p Params) string {
		return FormatSec74(Sec74(p))
	}},
	{Name: "extprefetch", Desc: "extension: ASAP-style launch prefetch baseline", Run: func(p Params) string {
		return FormatExt("Extension — prefetch baseline vs Fleet", ExtPrefetch(p))
	}},
	{Name: "extzram", Desc: "extension: compressed-RAM (zram) swap device", Run: func(p Params) string {
		return FormatExt("Extension — flash vs zram swap", ExtZram(p))
	}},
	{Name: "extswam", Desc: "extension: SWAM-style responsiveness-driven lmkd/reclaim", Run: func(p Params) string {
		return FormatExt("Extension — PSI lmkd vs SWAM responsiveness policy", ExtSwam(p))
	}},
	{Name: "extdepth", Desc: "ablation: NRO depth sweep, end to end", Run: func(p Params) string {
		return FormatExt("Ablation — NRO depth (end-to-end)", ExtDepthSweep(p))
	}},
	{Name: "extadvice", Desc: "ablation: madvise halves (COLD/HOT_RUNTIME)", Run: func(p Params) string {
		return FormatExt("Ablation — runtime-guided swap advice", ExtAdviceAblation(p))
	}},
	{Name: "population", Desc: "device-fleet campaign: per-tier launch percentiles and kill rates", OptIn: true, Run: func(p Params) string {
		return RunPopulation(p)
	}},
}

// Registry returns the experiments in table order. The returned slice is
// shared; callers must not modify it.
func Registry() []Spec { return registry }

// ByName returns the registered experiment (nil if unknown). Names are
// case-insensitive.
func ByName(name string) *Spec {
	name = strings.ToLower(name)
	for i := range registry {
		if registry[i].Name == name {
			return &registry[i]
		}
	}
	return nil
}

// Names returns every registered experiment name in table order.
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name
	}
	return out
}

// LookupRun resolves a name to its pure runner, reporting whether the
// experiment exists. This is the hook services inject for tests.
func LookupRun(name string) (func(Params) string, bool) {
	s := ByName(name)
	if s == nil {
		return nil, false
	}
	return s.Run, true
}
