package vmem

import (
	"time"

	"fleetsim/internal/units"
)

// DefaultDRAMBandwidth is the paper's measured DRAM streaming rate
// (9182.7 MB/s, §3.2); DRAMCost and the gc layer's memoised visit table
// charge memory traffic at it on every device.
const DefaultDRAMBandwidth = 9182.7e6

// DeviceProfile is the shared performance envelope of one storage/memory
// device: sustained read/write throughput, fixed per-op overhead and the
// sequential-read speedup. It unifies the bandwidth/latency fields that
// used to be duplicated between SwapDevice and SwapDeviceConfig, and
// replaces the scattered 20.3e6-style literals with named presets.
type DeviceProfile struct {
	// ReadBandwidth / WriteBandwidth are sustained throughputs in bytes/s.
	ReadBandwidth  float64
	WriteBandwidth float64
	// OpLatency is the fixed per-operation overhead (queueing + flash
	// translation, or the zram allocator's bookkeeping), paid once per
	// page moved.
	OpLatency time.Duration
	// SeqReadFactor is how much faster a sequential batched read runs than
	// the random-read ReadBandwidth (flash readahead); prefetchers exploit
	// it. <= 1 means no benefit.
	SeqReadFactor float64
}

// UFSFlashProfile is the paper's Pixel 3 flash swap partition: 20.3 MB/s
// random reads (§3.2), representative 60 MB/s writes, 80 µs per-op
// overhead and an 8× readahead win.
func UFSFlashProfile() DeviceProfile {
	return DeviceProfile{
		ReadBandwidth:  20.3e6,
		WriteBandwidth: 60e6,
		OpLatency:      80 * time.Microsecond,
		SeqReadFactor:  8,
	}
}

// ZramDeviceProfile is a compressed-RAM device: both directions run at
// LZ4-ish memory speed, per-op overhead is allocator bookkeeping, and
// there is no readahead win (it is already memory).
func ZramDeviceProfile() DeviceProfile {
	return DeviceProfile{
		ReadBandwidth:  1.2e9, // LZ4 decompress
		WriteBandwidth: 0.8e9, // LZ4 compress
		OpLatency:      4 * time.Microsecond,
		SeqReadFactor:  1,
	}
}

// normalized returns the profile with a zero SeqReadFactor replaced by
// the flash readahead default.
func (pr DeviceProfile) normalized() DeviceProfile {
	if pr.SeqReadFactor <= 0 {
		pr.SeqReadFactor = 8
	}
	return pr
}

// ReadTime is the IO time for a random read of n bytes.
func (pr DeviceProfile) ReadTime(n int64) time.Duration {
	return pr.OpLatency + units.TransferTime(n, pr.ReadBandwidth)
}

// WriteTime is the IO time for a write of n bytes.
func (pr DeviceProfile) WriteTime(n int64) time.Duration {
	return pr.OpLatency + units.TransferTime(n, pr.WriteBandwidth)
}

// SeqReadTime is the IO time for n bytes of a sequential batched read.
func (pr DeviceProfile) SeqReadTime(n int64) time.Duration {
	seq := pr.SeqReadFactor
	if seq <= 0 {
		seq = 1
	}
	return pr.OpLatency/4 + units.TransferTime(n, pr.ReadBandwidth*seq)
}
