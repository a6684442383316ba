// Package android is the system layer of the simulation: the device
// (DRAM + swap), the activity manager that moves apps between foreground
// and background, hot/cold launch execution with the first-frame time
// model, per-policy memory management (stock Android, Marvin, Fleet), the
// low-memory killer, and the frame/jank/CPU/power accounting the paper's
// §7.3 reports.
package android

import (
	"time"

	"fleetsim/internal/core"
	"fleetsim/internal/faults"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
)

// DeviceConfig sizes the simulated device.
type DeviceConfig struct {
	// DRAMBytes is total physical memory.
	DRAMBytes int64
	// SystemReservedBytes is memory held by the kernel, HALs and
	// persistent system services — never available to apps.
	SystemReservedBytes int64
	// Swap configures the swap partition; SizeBytes 0 disables swap.
	Swap vmem.SwapDeviceConfig
}

// AppBytes returns memory available to apps.
func (d DeviceConfig) AppBytes() int64 { return d.DRAMBytes - d.SystemReservedBytes }

// ScaledDevice builds a device with dram bytes of DRAM, roughly 1.4 GB held
// by the system, and swap bytes of UFS flash swap. scale divides every
// size — and the swap bandwidths — so experiments run quickly while staying
// faithful: capacity ratios are scale-invariant (apps shrink by the same
// factor, see apps.CommercialProfiles), and because IO throughput shrinks
// with memory, per-launch fault *milliseconds* match the full-size device.
// A zramPool > 0 carves a compressed pool of that many bytes out of DRAM
// and demotes the flash partition to its backing store, serving
// incompressible fallthrough and cold-page writeback.
func ScaledDevice(dram, swap, zramPool, scale int64) DeviceConfig {
	if scale < 1 {
		scale = 1
	}
	fscale := float64(scale)
	flash := vmem.UFSFlashProfile()
	flash.ReadBandwidth /= fscale
	flash.WriteBandwidth /= fscale
	d := DeviceConfig{
		DRAMBytes:           dram / scale,
		SystemReservedBytes: 1400 * units.MiB / scale,
		Swap:                vmem.SwapDeviceConfig{SizeBytes: swap / scale, Profile: flash},
	}
	if zramPool > 0 {
		pool := zramPool / scale
		prof := vmem.ZramDeviceProfile()
		prof.ReadBandwidth /= fscale
		prof.WriteBandwidth /= fscale
		d.DRAMBytes -= pool
		d.Swap = vmem.SwapDeviceConfig{
			SizeBytes: pool + swap/scale,
			Profile:   prof,
			Backend:   vmem.BackendZram,
			Zram:      vmem.ZramConfig{PoolBytes: pool, BackingBytes: swap / scale, BackingProfile: flash},
		}
	}
	return d
}

// Pixel3 is the paper's platform (§6): 4 GB LPDDR4X and a 2 GB flash swap
// partition, scaled down by scale.
func Pixel3(scale int64) DeviceConfig { return ScaledDevice(4*units.GiB, 2*units.GiB, 0, scale) }

// Pixel3NoSwap is the same device with swap disabled (the "w/o swap"
// baseline of Figs. 3 and 11c).
func Pixel3NoSwap(scale int64) DeviceConfig { return ScaledDevice(4*units.GiB, 0, 0, scale) }

// Pixel3Zram is the compressed-swap variant on the real zram backend (the
// vendor "RAM plus" configuration): the 2 GB flash swap partition is
// replaced by a 512 MB compressed pool carved out of DRAM (seeded per-page
// ratios, ~3.5:1 on compressible pages, so it effectively holds ~1.8 GB)
// plus a 256 MB flash writeback partition for incompressible fallthrough
// and cold-page demotion. Swap IO runs at memory speed plus compression
// CPU, but usable DRAM shrinks by the pool and total swap capacity is
// tighter than the flash device — the classic RAM-plus trade.
func Pixel3Zram(scale int64) DeviceConfig {
	return ScaledDevice(4*units.GiB, 256*units.MiB, 512*units.MiB, scale)
}

// SystemConfig carries the tunables of the runtime layer that experiments
// vary. Everything the evaluation holds fixed (tick sizes, the foreground
// heap-growth factor, the lmkd monitors' windows and thresholds, the
// kswapd watermarks) is a named constant beside the code that reads it.
type SystemConfig struct {
	Device DeviceConfig
	Policy PolicyKind

	// Fleet holds Fleet's Table 2 parameters (used when Policy ==
	// PolicyFleet).
	Fleet core.Config

	// BgHeapGrowth is the background heap-growth factor (§7.4 studies 1.1
	// vs 2.0; Android's background default is tight).
	BgHeapGrowth float64

	// BgGCPeriod is how often a cached app runs its full background
	// collection.
	BgGCPeriod time.Duration

	// FleetNoBGC is the Fig. 12a ablation: Fleet still groups and advises
	// the swap, but background collections fall back to full-heap major
	// GCs instead of BGC.
	FleetNoBGC bool

	// LaunchPrefetch enables an ASAP-style launch prefetcher (Son et al.,
	// ATC'21, discussed in the paper's related work): before a hot launch
	// runs, every swapped page of the app's Java heap and launch-critical
	// native range is read back sequentially at readahead speed. It
	// removes random launch faults but still pays the bulk IO — and does
	// nothing about the GC-swap conflict.
	LaunchPrefetch bool

	// Seed feeds every per-app RNG.
	Seed uint64

	// Faults, when non-nil, attaches a deterministic fault injector
	// (swap stalls, offline windows, slot squeezes, pressure storms, app
	// crashes) seeded from Seed. See internal/faults.
	Faults *faults.Profile

	// CheckInvariants runs the cross-layer consistency checker
	// (internal/faults.Check) after every GC and every
	// invariantEvery-th reclaim pass, recording violations in Metrics.
	CheckInvariants bool
}

// DefaultSystemConfig returns the evaluation defaults at the given scale.
func DefaultSystemConfig(policy PolicyKind, scale int64) SystemConfig {
	return SystemConfig{
		Device:       Pixel3(scale),
		Policy:       policy,
		Fleet:        core.DefaultConfig(),
		BgHeapGrowth: 1.1,
		BgGCPeriod:   60 * time.Second,
		Seed:         1,
	}
}

// FrameBudget is the 60 fps deadline the jank metric uses (§7.3: 16.7 ms).
const FrameBudget = 16700 * time.Microsecond

// baseRenderCPU is the CPU cost of rendering one frame when nothing
// stalls.
const baseRenderCPU = 6 * time.Millisecond
