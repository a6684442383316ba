// Package population turns the single-device simulator into a fleet:
// a deterministic, seeded generator expands a compact Spec into millions
// of heterogeneous devices — RAM/swap/CPU tiers with weights, zipf
// app-popularity draws over the commercial profiles, diurnal
// fore/background session schedules — one device at a time, so a
// million-device campaign never materializes more than a shard's worth of
// state. Campaign results reduce into mergeable percentile sketches
// (internal/metrics) per policy×tier, which makes shard-parallel
// aggregation, checkpoint/resume and fleet-wide p50/p95/p99 reporting all
// exact and bitwise deterministic. See DESIGN.md §4k.
package population

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
	"fleetsim/internal/xrand"
)

// Tier is one device class of the fleet: full-size hardware (the scale
// divisor is applied at expansion time), a CPU speed factor applied to
// launch CPU costs, and a sampling weight.
type Tier struct {
	Name string `json:"name"`
	// DRAMBytes / SwapBytes size the unscaled device.
	DRAMBytes int64 `json:"dram_bytes"`
	SwapBytes int64 `json:"swap_bytes"`
	// CPUFactor multiplies app launch CPU costs (1.0 = Pixel 3 class;
	// >1 slower silicon, <1 faster).
	CPUFactor float64 `json:"cpu_factor"`
	// Backend names the tier's swap backend ("" or "flash" for the flash
	// partition, "zram" for the compressed backend with flash backing).
	Backend string `json:"backend,omitempty"`
	// Weight is the tier's share of the fleet (relative to the sum).
	Weight int `json:"weight"`
}

// builtinTiers are the named device classes -tiers weight specs select
// from. Sizes follow the Android-fleet spread around the paper's Pixel 3
// (the "mid" tier is exactly the evaluation device); "zram" is a mid-class
// device whose vendor shipped compressed swap — select it explicitly, e.g.
// "-tiers mid:4,zram:2".
func builtinTiers() []Tier {
	return []Tier{
		{Name: "low", DRAMBytes: 3 * units.GiB, SwapBytes: 1 * units.GiB, CPUFactor: 1.6, Weight: 3},
		{Name: "mid", DRAMBytes: 4 * units.GiB, SwapBytes: 2 * units.GiB, CPUFactor: 1.0, Weight: 6},
		{Name: "high", DRAMBytes: 6 * units.GiB, SwapBytes: 3 * units.GiB, CPUFactor: 0.8, Weight: 2},
		{Name: "flagship", DRAMBytes: 8 * units.GiB, SwapBytes: 4 * units.GiB, CPUFactor: 0.65, Weight: 1},
		{Name: "zram", DRAMBytes: 4 * units.GiB, SwapBytes: 2 * units.GiB, CPUFactor: 1.0, Backend: "zram", Weight: 1},
	}
}

// DefaultTiers returns the default tier mix (low:3 mid:6 high:2
// flagship:1 — a mid-heavy fleet). The zram tier stays opt-in so existing
// campaign keys and digests are unchanged.
func DefaultTiers() []Tier {
	var out []Tier
	for _, t := range builtinTiers() {
		if t.Backend == "" {
			out = append(out, t)
		}
	}
	return out
}

// ParseTiers parses a "-tiers" weight spec like "low:4,mid:8,high:1" into
// tier definitions. Only named built-in tiers may appear; a tier omitted
// from the spec is excluded from the fleet. The empty string selects
// DefaultTiers.
func ParseTiers(spec string) ([]Tier, error) {
	if strings.TrimSpace(spec) == "" {
		return DefaultTiers(), nil
	}
	known := map[string]Tier{}
	var order []string
	for _, t := range builtinTiers() {
		known[t.Name] = t
		order = append(order, t.Name)
	}
	weights := map[string]int{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, w, ok := strings.Cut(part, ":")
		name = strings.ToLower(strings.TrimSpace(name))
		if _, exists := known[name]; !exists {
			return nil, fmt.Errorf("population: unknown tier %q (tiers: %s)", name, strings.Join(order, " "))
		}
		weight := 1
		if ok {
			n, err := strconv.Atoi(strings.TrimSpace(w))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("population: bad weight for tier %q: %q", name, w)
			}
			weight = n
		}
		if _, dup := weights[name]; dup {
			return nil, fmt.Errorf("population: tier %q listed twice", name)
		}
		weights[name] = weight
	}
	var out []Tier
	for _, name := range order { // built-in order keeps the spec canonical
		if w, ok := weights[name]; ok {
			t := known[name]
			t.Weight = w
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("population: tier spec %q selects no tiers", spec)
	}
	return out, nil
}

// TiersString renders tiers canonically ("low:3,mid:6,high:2,flagship:1"),
// the inverse of ParseTiers for campaign keys and reports.
func TiersString(tiers []Tier) string {
	parts := make([]string, len(tiers))
	for i, t := range tiers {
		parts[i] = fmt.Sprintf("%s:%d", t.Name, t.Weight)
	}
	return strings.Join(parts, ",")
}

// Spec describes a population campaign compactly; devices expand from it
// lazily and deterministically (device i is a pure function of the Spec).
type Spec struct {
	// Devices is the fleet size.
	Devices int
	// Seed drives every draw: tier assignment, app installs, schedules,
	// and each device's in-sim randomness.
	Seed uint64
	// Scale is the per-device scale divisor. The simulator is calibrated
	// at scale 32 (fig13's policy ordering inverts at coarser scales
	// because fixed constants like the heap controller's minimum headroom
	// stop scaling with the device), so campaigns default there.
	Scale int64
	// Tiers is the device-class mix.
	Tiers []Tier
	// Policies are the memory policies every device is simulated under
	// (paired: the same device workload runs once per policy).
	Policies []android.PolicyKind
	// AppsPerDevice is how many distinct apps each device has installed,
	// drawn by zipf popularity over the commercial profiles.
	AppsPerDevice int
	// Sessions is how many foreground sessions each device's diurnal
	// schedule holds.
	Sessions int
	// ZipfS is the app-popularity skew (> 1).
	ZipfS float64
	// ShardSize is the device-range width workers simulate and the
	// checkpoint journal commits at.
	ShardSize int
}

// DefaultSpec returns the calibrated campaign defaults: a 256-device
// smoke-sized fleet at the single-device experiments' scale 32, 16
// installed apps per device (the §7.2 pressure population), under all
// three policies. A device costs roughly half a second of wall time per
// policy; fleets scale linearly and shard across the worker pool.
func DefaultSpec() Spec {
	return Spec{
		Devices:       256,
		Seed:          1,
		Scale:         32,
		Tiers:         DefaultTiers(),
		Policies:      []android.PolicyKind{android.PolicyAndroid, android.PolicyMarvin, android.PolicyFleet},
		AppsPerDevice: 16,
		Sessions:      10,
		ZipfS:         1.2,
		ShardSize:     32,
	}
}

// PoliciesString renders the policy list canonically ("Android,Fleet").
func (s Spec) PoliciesString() string {
	parts := make([]string, len(s.Policies))
	for i, p := range s.Policies {
		parts[i] = p.String()
	}
	return strings.Join(parts, ",")
}

// ParsePolicies parses a comma-separated policy list ("android,fleet"),
// resolved through the android policy registry. The empty string selects
// the paper's trio (not every registered policy, so default campaign keys
// stay stable as policies are added).
func ParsePolicies(spec string) ([]android.PolicyKind, error) {
	if strings.TrimSpace(spec) == "" {
		return []android.PolicyKind{android.PolicyAndroid, android.PolicyMarvin, android.PolicyFleet}, nil
	}
	var out []android.PolicyKind
	seen := map[android.PolicyKind]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, ok := android.ParsePolicy(part)
		if !ok {
			return nil, fmt.Errorf("population: unknown policy %q (policies: %s)",
				part, strings.Join(android.PolicyNames(), ", "))
		}
		if seen[p] {
			return nil, fmt.Errorf("population: policy %q listed twice", part)
		}
		seen[p] = true
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("population: policy spec %q selects no policies", spec)
	}
	return out, nil
}

// Key canonically encodes everything that determines the campaign's
// results, for checkpoint campaign/cell keys and the report header.
func (s Spec) Key() string {
	return fmt.Sprintf("population/v1|devices=%d|seed=%d|scale=%d|tiers=%s|policies=%s|apps=%d|sessions=%d|zipf=%g|shard=%d",
		s.Devices, s.Seed, s.Scale, TiersString(s.Tiers), s.PoliciesString(),
		s.AppsPerDevice, s.Sessions, s.ZipfS, s.ShardSize)
}

// Validate reports the first structural problem with the spec.
func (s Spec) Validate() error {
	switch {
	case s.Devices < 1:
		return fmt.Errorf("population: devices %d < 1", s.Devices)
	case s.Scale < 1:
		return fmt.Errorf("population: scale %d < 1", s.Scale)
	case len(s.Tiers) == 0:
		return fmt.Errorf("population: no tiers")
	case len(s.Policies) == 0:
		return fmt.Errorf("population: no policies")
	case s.AppsPerDevice < 1:
		return fmt.Errorf("population: apps per device %d < 1", s.AppsPerDevice)
	case s.Sessions < 1:
		return fmt.Errorf("population: sessions %d < 1", s.Sessions)
	case !(s.ZipfS > 1):
		return fmt.Errorf("population: zipf skew %g must be > 1", s.ZipfS)
	case s.ShardSize < 1:
		return fmt.Errorf("population: shard size %d < 1", s.ShardSize)
	}
	for _, t := range s.Tiers {
		if t.Weight < 1 || t.DRAMBytes <= 0 {
			return fmt.Errorf("population: bad tier %+v", t)
		}
	}
	return nil
}

// Session is one entry of a device's schedule: bring App (an index into
// the device's installed set) to the foreground and use it for Fg. A zero
// Gap chains straight into the next session of the same pickup; a
// non-zero Gap ends the pickup — the screen goes off and every app sits
// cached for Gap, which is when background GC, Fleet grouping and reclaim
// do their work.
type Session struct {
	App int
	Fg  time.Duration
	Gap time.Duration
}

// Device is the expanded form of fleet member i: its tier, its installed
// apps (indices into apps.CommercialProfiles at the spec's scale), its
// session schedule, and the seed its per-policy simulations run under.
type Device struct {
	Index int
	Tier  int
	Seed  uint64
	Apps  []int
	Plan  []Session
}

// deviceSalt separates the population generator's RNG stream from every
// other consumer of the campaign seed.
const deviceSalt = 0x70706c6e5f763165 // "ppln_v1e"

// diurnalWeight is the fleet's activity curve over the hour of day:
// peak in the evening (~20:00), trough before dawn (~04:00). Sessions in
// active hours are longer and closer together; night sessions are brief
// with long cached gaps — which is exactly when background GC and
// grouped swap-out run.
func diurnalWeight(hour float64) float64 {
	return 0.25 + float64(0.75*(1+math.Cos(2*math.Pi*(hour-20)/24))/2)
}

// ExpandDevice deterministically expands fleet member i: a pure function
// of (Spec, i), independent of shard boundaries and worker count, so any
// partition of the fleet simulates identical devices. nApps is the size
// of the app catalog draws index into.
func (s Spec) ExpandDevice(i, nApps int) Device {
	rng := xrand.New(s.Seed ^ deviceSalt).Fork(uint64(i))
	d := Device{Index: i, Seed: rng.Uint64()}

	// Weighted tier assignment.
	total := 0
	for _, t := range s.Tiers {
		total += t.Weight
	}
	pick := rng.Intn(total)
	for ti, t := range s.Tiers {
		if pick < t.Weight {
			d.Tier = ti
			break
		}
		pick -= t.Weight
	}

	// Zipf app installs: popular apps appear on most devices, the tail
	// on few. Draws repeat until the install set is distinct (bounded;
	// leftovers fill from the head of the popularity order).
	want := s.AppsPerDevice
	if want > nApps {
		want = nApps
	}
	seen := make(map[int]bool, want)
	for attempts := 0; len(d.Apps) < want && attempts < 12*want; attempts++ {
		a := rng.Zipf(nApps, s.ZipfS)
		if !seen[a] {
			seen[a] = true
			d.Apps = append(d.Apps, a)
		}
	}
	for a := 0; len(d.Apps) < want; a++ {
		if !seen[a] {
			seen[a] = true
			d.Apps = append(d.Apps, a)
		}
	}

	// Diurnal schedule: sessions arrive in pickups — the user unlocks the
	// phone and chains a few app switches back to back (the §7.2
	// multitasking regime, where launch bursts contend for memory), then
	// the screen goes off until the next pickup. Active hours have longer,
	// busier pickups; night pickups are brief with long cached gaps.
	// Session app choice is zipf over the install order (the most popular
	// installs also get the most sessions).
	phase := float64(rng.Float64() * 24)
	for k := 0; k < s.Sessions; {
		hour := math.Mod(phase+float64(k)*24/float64(s.Sessions), 24)
		w := diurnalWeight(hour)
		burst := 1 + rng.Intn(1+int(float64(3*w)+0.5))
		if burst > s.Sessions-k {
			burst = s.Sessions - k
		}
		for j := 0; j < burst; j++ {
			app := rng.Zipf(len(d.Apps), s.ZipfS)
			if n := len(d.Plan); n > 0 && d.Plan[n-1].Gap == 0 && d.Plan[n-1].App == app {
				// Mid-pickup, switching to the app already in the
				// foreground is a no-op; redraw once for variety.
				app = rng.Zipf(len(d.Apps), s.ZipfS)
			}
			ses := Session{
				App: app,
				Fg:  time.Duration((2 + float64(8*w*rng.Float64())) * float64(time.Second)),
			}
			if j == burst-1 {
				ses.Gap = time.Duration((6 + float64(24*(1-w)*rng.Float64())) * float64(time.Second))
			}
			d.Plan = append(d.Plan, ses)
			k++
		}
	}
	return d
}

// TierDevice scales a tier's hardware into a DeviceConfig with
// android.ScaledDevice, as android.Pixel3 scales the paper's device. A
// tier with Backend "zram" carves a quarter of its DRAM into the
// compressed pool and demotes the swap partition to backing store.
func TierDevice(t Tier, scale int64) android.DeviceConfig {
	var pool int64
	if kind, _ := vmem.ParseBackend(t.Backend); kind == vmem.BackendZram {
		pool = t.DRAMBytes / 4
	}
	return android.ScaledDevice(t.DRAMBytes, t.SwapBytes, pool, scale)
}

// sortedKeys returns a map's keys in ascending order (deterministic
// iteration for reports and digests).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
