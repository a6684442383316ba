// The simulated device: policies, device and system configuration, the
// System/Proc lifecycle API, app profiles, and event tracing.
package fleet

import (
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/apps"
	"fleetsim/internal/core"
	"fleetsim/internal/experiments"
	"fleetsim/internal/trace"
	"fleetsim/internal/vmem"
)

// Policy selects the memory-management design under test (Table 1 of the
// paper).
type Policy = android.PolicyKind

// The three policies of Table 1, plus the follow-on SWAM policy.
const (
	// PolicyAndroid is stock Android: native GC + kernel LRU page swap.
	PolicyAndroid = android.PolicyAndroid
	// PolicyMarvin is the bookmarking-GC baseline.
	PolicyMarvin = android.PolicyMarvin
	// PolicyFleet is the paper's GC-swap co-design.
	PolicyFleet = android.PolicyFleet
	// PolicySwam keeps the stock runtime but drives reclaim and lmkd off
	// modeled app responsiveness (refault + decompression stall).
	PolicySwam = android.PolicySwam
)

// ParsePolicy maps a policy name ("Android", "Marvin", "Fleet";
// case-insensitive) to its Policy. The second result is false for
// unknown names.
func ParsePolicy(name string) (Policy, bool) { return android.ParsePolicy(name) }

// FleetConfig carries Fleet's own tunables: the NRO depth D (Table 2;
// Fig. 6b sweeps it) and the two RGS advice ablation switches. Table 2's
// other parameters (Ts=10 s, Tf=3 s, CARD_SHIFT=10) are fixed; the tab2
// experiment prints them.
type FleetConfig = core.Config

// DefaultFleetConfig returns Table 2's default, D=2, with both advice
// halves on.
func DefaultFleetConfig() FleetConfig { return core.DefaultConfig() }

// DeviceConfig sizes the simulated device (DRAM, system reservation, swap
// partition).
type DeviceConfig = android.DeviceConfig

// Pixel3 returns the paper's evaluation platform at the given scale
// divisor: 4 GB DRAM, ~1.4 GB system-reserved, 2 GB swap at 20.3 MB/s
// read. Scale divides sizes and IO bandwidth together, so launch-time
// milliseconds stay comparable to the real device while simulations run
// quickly. Scale 1 is the full-size phone.
func Pixel3(scale int64) DeviceConfig { return android.Pixel3(scale) }

// Pixel3NoSwap is the same device with the swap partition disabled.
func Pixel3NoSwap(scale int64) DeviceConfig { return android.Pixel3NoSwap(scale) }

// Pixel3Zram is the same device with a vendor-style compressed-RAM
// ("RAM plus") swap backend: a zram pool carved out of DRAM with a small
// flash backing partition for incompressible fallthrough and writeback.
func Pixel3Zram(scale int64) DeviceConfig { return android.Pixel3Zram(scale) }

// Backend selects the swap-backend implementation a device runs on.
type Backend = vmem.BackendKind

// The registered swap backends.
const (
	// BackendFlash is the paper's flash swap partition (the default).
	BackendFlash = vmem.BackendFlash
	// BackendZram is the compressed-RAM backend.
	BackendZram = vmem.BackendZram
)

// ParseBackend maps a swap-backend name ("flash", "zram", "" for the
// default; case-insensitive) to its Backend. The second result is false
// for unknown names.
func ParseBackend(name string) (Backend, bool) { return vmem.ParseBackend(name) }

// BackendNames lists the valid swap-backend names for CLI/API errors.
func BackendNames() []string { return vmem.BackendNames() }

// SystemConfig configures a simulated system: device, policy, Fleet's
// settings, the background heap-growth factor and GC period, ablation
// switches, seed and fault injection.
type SystemConfig = android.SystemConfig

// DefaultSystemConfig returns the calibrated evaluation configuration for
// a policy at the given device scale.
func DefaultSystemConfig(policy Policy, scale int64) SystemConfig {
	return android.DefaultSystemConfig(policy, scale)
}

// System is a running simulated device: an activity manager, the kernel
// memory manager, and any number of app processes. Drive it with Launch /
// SwitchTo / Use / Kill and read results from its Metrics.
type System = android.System

// Proc is one app process within a System.
type Proc = android.Proc

// Metrics aggregates everything a System measured: launch records, GC
// records, frame statistics, CPU time and lmkd kills.
type Metrics = android.Metrics

// NewSystem boots a simulated device.
func NewSystem(cfg SystemConfig) *System { return android.NewSystem(cfg) }

// AppProfile describes one app's memory behaviour: Java heap size and
// share, object-size distribution, allocation and access rates, launch
// costs and hot-launch re-access pattern.
type AppProfile = apps.Profile

// CommercialApps returns the 18 Table 3 app profiles at the given device
// scale, calibrated to the paper's Figs. 2, 7 and 13n.
func CommercialApps(scale int64) []AppProfile { return apps.CommercialProfiles(scale) }

// AppByName returns one Table 3 profile (nil if unknown).
func AppByName(name string, scale int64) *AppProfile { return apps.ProfileByName(name, scale) }

// SyntheticApp builds one of the paper's manually created test apps: all
// objects are objSize bytes and the Java heap is footprint bytes (§6 uses
// 512 B / 2048 B objects and 180 MB).
func SyntheticApp(name string, objSize int32, footprint int64) AppProfile {
	return apps.SyntheticProfile(name, objSize, footprint)
}

// Use is a readability alias: sys.Use(d) advances simulated time by d with
// the current foreground app in use.
func Use(sys *System, d time.Duration) { sys.Use(d) }

// TraceLog is the simulator's systrace analogue: the structured event log
// a System fills after EnableTrace. Export it with CSV, JSON or
// ChromeJSON (Perfetto-loadable).
type TraceLog = trace.Log

// CaptureTrace runs the canonical trace scenario — six commercial apps
// launched, used and switched through twice — under the given policy and
// returns its event log. fleetsim's `trace` experiment and fleetd's
// GET /v1/jobs/{id}/trace both serve exactly this capture, so the two
// frontends stay byte-identical for the same Params.
func CaptureTrace(p Params, policy Policy) *TraceLog {
	return experiments.CaptureTrace(p, policy)
}

// ValidateChromeTrace structurally checks a Chrome trace-event export:
// valid JSON, non-decreasing timestamps, properly paired B/E duration
// events on every track.
func ValidateChromeTrace(data []byte) error { return trace.ValidateChrome(data) }
