package vmem

import (
	"time"

	"fleetsim/internal/mem"
	"fleetsim/internal/units"
)

// FaultState is the externally injected health of the swap device at one
// instant. internal/faults computes it from its scheduled fault windows;
// the device itself stays policy-free.
type FaultState struct {
	// LatencyFactor multiplies every IO time (transient stall window).
	// Values <= 0 or == 1 mean no stall.
	LatencyFactor float64
	// OfflineFor is how long the device remains unreachable (device-offline
	// window). Zero means online.
	OfflineFor time.Duration
	// CPUFactor multiplies compression/decompression CPU time (a
	// compression-CPU-spike window: thermal throttling or a contended
	// little-core cluster). Only compressed backends pay it; flash IO is
	// unaffected. Values <= 0 or == 1 mean no spike.
	CPUFactor float64
}

// SwapDevice models the flash-based swap partition: a fixed number of 4 KB
// slots with strongly asymmetric performance versus DRAM. The paper measures
// DRAM at 9182.7 MB/s and the swap partition at 20.3 MB/s (§3.2); those are
// the UFSFlashProfile defaults. It is the "flash" SwapBackend.
type SwapDevice struct {
	totalSlots int64
	usedSlots  int64
	// reserved slots are held hostage by an injected slot-exhaustion fault
	// (e.g. another subsystem filling zram); they count as neither free nor
	// used.
	reserved int64

	// Profile is the device's performance envelope.
	Profile DeviceProfile

	// faults, when non-nil, is sampled before every IO to pick up injected
	// stall and offline windows. Left nil in fault-free runs, costing one
	// predictable branch.
	faults func() FaultState

	reads, writes int64 // lifetime page-op counters
}

// SwapDeviceConfig configures a swap backend: its nominal capacity, its
// performance profile, which backend implementation serves it, and the
// zram-specific knobs when Backend is BackendZram.
type SwapDeviceConfig struct {
	SizeBytes int64
	Profile   DeviceProfile
	// Backend selects the implementation (flash by default).
	Backend BackendKind
	// Zram configures the compressed backend; ignored for flash.
	Zram ZramConfig
}

// DefaultSwapConfig matches the paper's Pixel 3 measurements: a 2 GB
// partition on the UFS flash profile.
func DefaultSwapConfig() SwapDeviceConfig {
	return SwapDeviceConfig{
		SizeBytes: 2 * units.GiB,
		Profile:   UFSFlashProfile(),
	}
}

// NewSwapDevice builds a flash-style device from cfg.
func NewSwapDevice(cfg SwapDeviceConfig) *SwapDevice {
	return &SwapDevice{
		totalSlots: units.PagesFor(cfg.SizeBytes),
		Profile:    cfg.Profile.normalized(),
	}
}

// Name returns "flash".
func (d *SwapDevice) Name() string { return "flash" }

// TotalSlots returns the device capacity in page slots.
func (d *SwapDevice) TotalSlots() int64 { return d.totalSlots }

// FreeSlots returns the number of slots available for new writes.
func (d *SwapDevice) FreeSlots() int64 { return d.totalSlots - d.usedSlots - d.reserved }

// UsedSlots returns the number of occupied swap slots.
func (d *SwapDevice) UsedSlots() int64 { return d.usedSlots }

// ReservedSlots returns the slots currently held by an injected
// slot-exhaustion fault.
func (d *SwapDevice) ReservedSlots() int64 { return d.reserved }

// ReserveSlots takes up to n free slots out of circulation (an injected
// slot-exhaustion fault) and returns how many it actually got.
func (d *SwapDevice) ReserveSlots(n int64) int64 {
	if free := d.FreeSlots(); n > free {
		n = free
	}
	if n < 0 {
		n = 0
	}
	d.reserved += n
	return n
}

// UnreserveSlots returns previously reserved slots to circulation.
func (d *SwapDevice) UnreserveSlots(n int64) {
	d.reserved -= n
	if d.reserved < 0 {
		d.reserved = 0
	}
}

// SetFaults installs the injected-fault hook.
func (d *SwapDevice) SetFaults(fn func() FaultState) { d.faults = fn }

// faultState samples the injected fault hook, if any.
func (d *SwapDevice) faultState() FaultState {
	if d.faults == nil {
		return FaultState{}
	}
	return d.faults()
}

// OfflineFor reports how long the device remains unreachable (zero when
// online). The manager waits this out in sim time before swap-ins.
func (d *SwapDevice) OfflineFor() time.Duration {
	return d.faultState().OfflineFor
}

// Online reports whether the device currently accepts IO.
func (d *SwapDevice) Online() bool { return d.OfflineFor() <= 0 }

// CanWrite reports whether a swap-out could succeed right now: device
// present, online, and at least one free slot.
func (d *SwapDevice) CanWrite() bool {
	return d.totalSlots > 0 && d.FreeSlots() > 0 && d.Online()
}

// stretch applies the injected latency factor of a transient stall window.
func (d *SwapDevice) stretch(io time.Duration) time.Duration {
	if f := d.faultState().LatencyFactor; f > 1 {
		return time.Duration(float64(io) * f)
	}
	return io
}

// WritePage stores one page, consuming a slot, and returns the IO time.
// Fails fast with ErrSwapFull when no slot is free and ErrSwapOffline
// during an injected offline window — the reclaim path treats both as
// "skip this swap-out", exactly like zram refusing a store. Flash costs
// are content-independent, so the page argument is unused.
func (d *SwapDevice) WritePage(*mem.Page) (time.Duration, error) {
	if !d.Online() {
		return 0, ErrSwapOffline
	}
	if d.FreeSlots() <= 0 {
		return 0, ErrSwapFull
	}
	d.usedSlots++
	d.writes++
	return d.stretch(d.Profile.WriteTime(units.PageSize)), nil
}

// ReadPage loads one page back, freeing its slot, and returns the IO time.
// Reading a slot that was never written is accounting corruption
// (ErrSwapCorrupt). Offline windows are the manager's concern: it waits
// them out in sim time before calling (a read can always be retried; the
// data is still on the device).
func (d *SwapDevice) ReadPage(*mem.Page) (time.Duration, error) {
	if d.usedSlots <= 0 {
		return 0, ErrSwapCorrupt
	}
	d.usedSlots--
	d.reads++
	return d.stretch(d.Profile.ReadTime(units.PageSize)), nil
}

// ReadPageSequential is ReadPage at readahead (sequential) speed, for
// prefetchers that batch a known page set.
func (d *SwapDevice) ReadPageSequential(*mem.Page) (time.Duration, error) {
	if d.usedSlots <= 0 {
		return 0, ErrSwapCorrupt
	}
	d.usedSlots--
	d.reads++
	return d.stretch(d.Profile.SeqReadTime(units.PageSize)), nil
}

// Discard frees a slot without a read (the page's memory was released).
func (d *SwapDevice) Discard(*mem.Page) error {
	if d.usedSlots <= 0 {
		return ErrSwapCorrupt
	}
	d.usedSlots--
	return nil
}

// Reads returns the lifetime count of page reads (swap-ins).
func (d *SwapDevice) Reads() int64 { return d.reads }

// Writes returns the lifetime count of page writes (swap-outs).
func (d *SwapDevice) Writes() int64 { return d.writes }

// BackendStats returns zeroes: flash has no compression machinery.
func (d *SwapDevice) BackendStats() BackendStats { return BackendStats{} }
