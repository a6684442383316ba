package vmem

import (
	"fmt"
	"time"

	"fleetsim/internal/mem"
	"fleetsim/internal/units"
)

// FaultState is the externally injected health of the swap device at one
// instant. internal/faults computes it from its scheduled fault windows and
// hands it to the Manager through its Faults hook; backends only scale
// their costs by it.
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

// stretch applies the latency factor of a transient stall window.
func (fs FaultState) stretch(io time.Duration) time.Duration {
	if fs.LatencyFactor > 1 {
		return time.Duration(float64(io) * fs.LatencyFactor)
	}
	return io
}

// cpu applies the factor of a compression-CPU-spike window.
func (fs FaultState) cpu(d time.Duration) time.Duration {
	if fs.CPUFactor > 1 {
		return time.Duration(float64(d) * fs.CPUFactor)
	}
	return d
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

// WritePage stores one page, consuming a slot, and returns the IO time
// stretched by fs's latency factor. It fails fast with ErrSwapFull when no
// slot is free; the reclaim path treats that as "skip this swap-out",
// exactly like zram refusing a store. Flash costs are content-independent,
// so the page argument is unused.
func (d *SwapDevice) WritePage(_ *mem.Page, fs FaultState) (time.Duration, error) {
	if d.FreeSlots() <= 0 {
		return 0, ErrSwapFull
	}
	d.usedSlots++
	return fs.stretch(d.Profile.WriteTime(units.PageSize)), nil
}

// ReadPage loads one page back, freeing its slot, and returns the IO time
// (readahead speed when sequential) stretched by fs's latency factor.
// Reading a slot that was never written is accounting corruption
// (ErrSwapCorrupt).
func (d *SwapDevice) ReadPage(_ *mem.Page, fs FaultState, sequential bool) (time.Duration, error) {
	if d.usedSlots <= 0 {
		return 0, ErrSwapCorrupt
	}
	d.usedSlots--
	if sequential {
		return fs.stretch(d.Profile.SeqReadTime(units.PageSize)), nil
	}
	return fs.stretch(d.Profile.ReadTime(units.PageSize)), nil
}

// Discard frees a slot without a read (the page's memory was released).
func (d *SwapDevice) Discard(*mem.Page) error {
	if d.usedSlots <= 0 {
		return ErrSwapCorrupt
	}
	d.usedSlots--
	return nil
}

// Check verifies that the used and reserved slots fit the device.
func (d *SwapDevice) Check() error {
	if d.usedSlots < 0 || d.reserved < 0 || d.usedSlots+d.reserved > d.totalSlots {
		return fmt.Errorf("swap: %d used and %d reserved slots on a %d-slot device",
			d.usedSlots, d.reserved, d.totalSlots)
	}
	return nil
}

// BackendStats returns zeroes: flash has no compression machinery.
func (d *SwapDevice) BackendStats() BackendStats { return BackendStats{} }
