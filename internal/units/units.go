// Package units provides byte-size and duration helpers shared by every
// simulator package. All sizes are expressed in plain int64 bytes and all
// durations in time.Duration of virtual (simulated) time; this package only
// supplies the constants and formatting utilities so that magic numbers do
// not spread through the codebase.
package units

import (
	"fmt"
	"time"
)

// Byte-size constants.
const (
	B   int64 = 1
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
)

// PageSize is the fixed swap/paging granularity used throughout the
// simulation, matching Linux on arm64 Android devices (4 KB).
const PageSize int64 = 4 * KiB

// RegionSize is the default ART heap-region size (Table 2 of the paper).
const RegionSize int64 = 256 * KiB

// Bytes formats a byte count in a human-readable way ("1.50 MiB").
func Bytes(n int64) string {
	switch {
	case n >= GiB:
		return fmt.Sprintf("%.2f GiB", float64(n)/float64(GiB))
	case n >= MiB:
		return fmt.Sprintf("%.2f MiB", float64(n)/float64(MiB))
	case n >= KiB:
		return fmt.Sprintf("%.2f KiB", float64(n)/float64(KiB))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// PagesFor returns the number of pages needed to hold n bytes.
func PagesFor(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return (n + PageSize - 1) / PageSize
}

// PageIndex returns the page number containing addr.
func PageIndex(addr int64) int64 { return addr / PageSize }

// TransferTime returns how long moving n bytes takes at bandwidth
// bytesPerSec. It saturates rather than overflowing for very large inputs.
func TransferTime(n int64, bytesPerSec float64) time.Duration {
	if n <= 0 || bytesPerSec <= 0 {
		return 0
	}
	sec := float64(n) / bytesPerSec
	return time.Duration(sec * float64(time.Second))
}
