// Package apps models the workloads the paper evaluates: the manually
// created Marvin-style apps (fixed object size, fixed footprint) and the 18
// commercial apps of Table 3. An App owns a Java heap and a native memory
// segment and exposes the behaviours the experiments need — an initial
// foreground session, foreground ticks (allocation churn + accesses +
// frames), background ticks (light allocation, working-set touches), and a
// hot-launch re-access pass whose composition is calibrated to the paper's
// Fig. 6 (≈50% NRO, ≈40% FYO, ≈68% union).
package apps

import (
	"math"
	"sync"
	"time"

	"fleetsim/internal/units"
	"fleetsim/internal/xrand"
)

// SizeDist samples object sizes in bytes.
type SizeDist interface {
	Sample(r *xrand.Rand) int32
	// Mean is the mean size in bytes, before any clamping; BuildInitial
	// estimates its object count from it.
	Mean() float64
}

// FixedSize always returns the same size — the Marvin project's manually
// created apps (§6: 512 B small-object apps, 2048 B large-object apps).
type FixedSize int32

// Sample implements SizeDist.
func (f FixedSize) Sample(*xrand.Rand) int32 { return int32(f) }

// Mean implements SizeDist.
func (f FixedSize) Mean() float64 { return float64(f) }

// LogNormalSize matches the commercial object-size CDF of Fig. 7: most
// objects are tens of bytes, almost all fall below the 4 KB page size, with
// a thin tail of KB-scale arrays/bitmaps.
type LogNormalSize struct {
	Mu, Sigma float64
	Min, Max  int32
}

// Sample implements SizeDist.
func (l LogNormalSize) Sample(r *xrand.Rand) int32 {
	s := int32(r.LogNormal(l.Mu, l.Sigma))
	if s < l.Min {
		s = l.Min
	}
	if s > l.Max {
		s = l.Max
	}
	return s
}

// Mean implements SizeDist: the unclamped lognormal mean
// exp(Mu + Sigma²/2), 90.5 B for the commercial distribution.
func (l LogNormalSize) Mean() float64 { return math.Exp(l.Mu + float64(l.Sigma*l.Sigma/2)) }

// DefaultCommercialSizes is the Fig. 7-calibrated distribution: median
// ≈ 48 B, ~99% below one page.
func DefaultCommercialSizes() SizeDist {
	return LogNormalSize{Mu: 3.9, Sigma: 1.1, Min: 16, Max: 16 * 1024}
}

// LaunchMix describes the composition of the objects an app re-accesses
// during a hot-launch, as fractions of the re-access set (Fig. 6a): objects
// that are near-root only, foreground-young only, both, or neither.
type LaunchMix struct {
	NearRootOnly float64 // NRO \ FYO
	YoungOnly    float64 // FYO \ NRO
	Both         float64 // NRO ∩ FYO
	// The remainder (1 - sum) is drawn from cold bulk objects.
}

// DefaultLaunchMix reproduces the paper's averages: NRO ≈ 50%,
// FYO ≈ 40%, union ≈ 68% of re-accessed objects.
func DefaultLaunchMix() LaunchMix {
	return LaunchMix{NearRootOnly: 0.28, YoungOnly: 0.18, Both: 0.22}
}

// Profile is the static description of one app.
type Profile struct {
	Name     string
	Category string

	// JavaHeapBytes is the steady-state live Java heap.
	JavaHeapBytes int64
	// JavaHeapFrac is the Java share of the app's total memory footprint
	// (Fig. 13n's x-axis); the rest is native/code memory.
	JavaHeapFrac float64

	// Sizes samples object sizes.
	Sizes SizeDist

	// FgAllocRate / BgAllocRate are allocation throughput in bytes per
	// second of virtual time.
	FgAllocRate int64
	BgAllocRate int64

	// GarbageFrac is the fraction of freshly allocated bytes that die
	// young (dropped at the next tick boundary).
	GarbageFrac float64

	// FgAccessesPerTick / BgAccessesPerTick are object accesses performed
	// per workload tick.
	FgAccessesPerTick int
	BgAccessesPerTick int

	// HotLaunchCPU is the pure-CPU part of rendering the first frame on a
	// hot launch (everything resident).
	HotLaunchCPU time.Duration
	// ColdLaunchCPU is the process-creation + init + first-frame CPU cost
	// of a cold launch (Fig. 2's large constant).
	ColdLaunchCPU time.Duration

	// LaunchAccessFrac is the fraction of the live Java heap (by object
	// count) re-accessed during a hot launch.
	LaunchAccessFrac float64
	// LaunchAllocBytes is the allocation burst a hot launch performs
	// ("many new objects are created quickly", §4.2).
	LaunchAllocBytes int64
	// Mix composes the launch re-access set.
	Mix LaunchMix

	// NativeWSFrac is the fraction of native memory touched while the app
	// is actively used (the rest is cold native).
	NativeWSFrac float64
	// LaunchNativeFrac is the fraction of native memory touched during a
	// launch.
	LaunchNativeFrac float64

	// BgWSObjects is how many objects the app keeps touching while
	// backgrounded (its background working set; e.g. a player's buffers).
	BgWSObjects int
}

// NativeBytes derives the native segment size from the Java fraction.
func (p *Profile) NativeBytes() int64 {
	if p.JavaHeapFrac <= 0 || p.JavaHeapFrac >= 1 {
		return 0
	}
	return int64(float64(p.JavaHeapBytes) * (1 - p.JavaHeapFrac) / p.JavaHeapFrac)
}

// TotalBytes is Java + native footprint.
func (p *Profile) TotalBytes() int64 { return p.JavaHeapBytes + p.NativeBytes() }

// SyntheticProfile builds a Marvin-style manually created app (§6): objects
// of exactly objSize bytes filling footprint bytes of Java heap.
func SyntheticProfile(name string, objSize int32, footprint int64) Profile {
	return Profile{
		Name:              name,
		Category:          "synthetic",
		JavaHeapBytes:     footprint,
		JavaHeapFrac:      0.80, // synthetic apps are almost all Java heap
		Sizes:             FixedSize(objSize),
		FgAllocRate:       footprint / 20, // refreshes 5%/s while used
		BgAllocRate:       footprint / 500,
		GarbageFrac:       0.70,
		FgAccessesPerTick: 400,
		BgAccessesPerTick: 20,
		HotLaunchCPU:      90 * time.Millisecond,
		ColdLaunchCPU:     1500 * time.Millisecond,
		LaunchAccessFrac:  0.012,
		LaunchAllocBytes:  footprint / 25,
		Mix:               DefaultLaunchMix(),
		NativeWSFrac:      0.3,
		LaunchNativeFrac:  0.2,
		BgWSObjects:       64,
	}
}

// scaled multiplies a byte count by the global experiment scale factor.
// The experiments run the whole device at 1/Scale of the Pixel 3's sizes to
// keep simulation time reasonable; capacity ratios are scale-invariant
// because every footprint shrinks together.
func scaled(bytes int64, scale int64) int64 { return bytes / scale }

// CommercialProfile constructs one of Table 3's apps. javaMB/fracJava and
// launch CPU costs are calibrated to Figs. 2 and 13n.
func commercialProfile(name, category string, javaMB int64, fracJava float64, hotMs, coldMs int, scale int64) Profile {
	java := scaled(javaMB*units.MiB, scale)
	return Profile{
		Name:              name,
		Category:          category,
		JavaHeapBytes:     java,
		JavaHeapFrac:      fracJava,
		Sizes:             DefaultCommercialSizes(),
		FgAllocRate:       java / 15,
		BgAllocRate:       java / 400,
		GarbageFrac:       0.75,
		FgAccessesPerTick: 300,
		BgAccessesPerTick: 15,
		HotLaunchCPU:      time.Duration(hotMs) * time.Millisecond,
		ColdLaunchCPU:     time.Duration(coldMs) * time.Millisecond,
		LaunchAccessFrac:  0.012,
		LaunchAllocBytes:  java / 20,
		Mix:               DefaultLaunchMix(),
		NativeWSFrac:      0.60,
		LaunchNativeFrac:  0.15,
		BgWSObjects:       48,
	}
}

// profileCache shares one immutable profile table per scale divisor.
// Experiments call CommercialProfiles per measured app and per policy run;
// sharing keeps that a map lookup instead of rebuilding (and re-allocating)
// the 18-entry table each time.
var profileCache struct {
	sync.Mutex
	byScale map[int64][]Profile
}

// CommercialProfiles returns the 18 Table 3 apps at the given scale
// divisor (1 = full Pixel 3 sizes). Java heap sizes and fractions are
// chosen so Fig. 13n's range (≈4%–30% Java) and Fig. 2's launch times are
// covered; hot/cold CPU milliseconds follow Fig. 2's ordering.
//
// The returned slice is shared and read-only: all callers for a given
// scale see the same backing array. Copy a Profile (they are plain values)
// before customising it — as ProfileByName does.
func CommercialProfiles(scale int64) []Profile {
	profileCache.Lock()
	defer profileCache.Unlock()
	if t, ok := profileCache.byScale[scale]; ok {
		return t
	}
	t := buildCommercialProfiles(scale)
	if profileCache.byScale == nil {
		profileCache.byScale = make(map[int64][]Profile)
	}
	profileCache.byScale[scale] = t
	return t
}

// buildCommercialProfiles constructs the Table 3 rows for one scale.
func buildCommercialProfiles(scale int64) []Profile {
	return []Profile{
		// Communication.
		commercialProfile("Twitter", "communication", 60, 0.28, 85, 2390, scale),
		commercialProfile("Facebook", "communication", 70, 0.25, 70, 2800, scale),
		commercialProfile("Instagram", "communication", 65, 0.26, 75, 2600, scale),
		commercialProfile("Telegram", "communication", 35, 0.22, 55, 1500, scale),
		commercialProfile("Line", "communication", 45, 0.24, 80, 2000, scale),
		// Multi-media.
		commercialProfile("Youtube", "multimedia", 55, 0.20, 90, 2500, scale),
		commercialProfile("Tiktok", "multimedia", 75, 0.22, 85, 3000, scale),
		commercialProfile("Spotify", "multimedia", 40, 0.18, 65, 1800, scale),
		commercialProfile("Twitch", "multimedia", 60, 0.21, 95, 2700, scale),
		commercialProfile("Rave", "multimedia", 50, 0.19, 110, 2400, scale),
		commercialProfile("BigoLive", "multimedia", 55, 0.20, 105, 2600, scale),
		// Tools & utilities.
		commercialProfile("AmazonShop", "tools", 50, 0.23, 75, 2200, scale),
		commercialProfile("GoogleMaps", "tools", 45, 0.15, 95, 2300, scale),
		commercialProfile("Chrome", "tools", 65, 0.17, 70, 1900, scale),
		commercialProfile("Firefox", "tools", 60, 0.18, 80, 2100, scale),
		commercialProfile("LinkedIn", "tools", 42, 0.24, 85, 2000, scale),
		// Games (tiny Java share — mostly native engines; Fig. 16f's
		// CandyCrush has only ~4% Java heap).
		commercialProfile("AngryBirds", "games", 20, 0.06, 100, 3200, scale),
		commercialProfile("CandyCrush", "games", 16, 0.04, 95, 3500, scale),
	}
}

// ProfileByName finds a commercial profile by name (nil if absent).
func ProfileByName(name string, scale int64) *Profile {
	for _, p := range CommercialProfiles(scale) {
		if p.Name == name {
			p := p
			return &p
		}
	}
	return nil
}
