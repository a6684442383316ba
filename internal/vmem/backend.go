package vmem

import (
	"strings"
	"time"

	"fleetsim/internal/mem"
)

// SwapBackend is the pluggable swap-device seam: a backend models only
// capacity and per-page cost, so policies can run against flash,
// compressed RAM, or anything else that prices page stores and loads
// deterministically. Device health (injected stall, offline and CPU-spike
// windows) and swap bookkeeping belong to the Manager: it samples the fault
// hook once per operation, refuses stores and waits out reads inside
// offline windows, counts every page op in Stats, and passes the sampled
// FaultState to the backend, which scales only its own costs by it.
//
// Contract (the determinism harness and invariant checker rely on it):
//
//   - Every method is deterministic: equal call sequences produce equal
//     durations, errors and counter states. All randomness must derive
//     from the backend's construction seed and the page identities passed
//     in — never from wall clock or map iteration order.
//   - WritePage stores the page and consumes capacity; ReadPage and
//     Discard release it. UsedSlots() must equal the number of pages
//     currently stored (faults.Check cross-validates it against the page
//     tables), and FreeSlots() must never go negative.
//   - WritePage fails fast with ErrSwapFull when no route has room; the
//     reclaim path treats it as "skip this swap-out". Reading or
//     discarding a page that was never stored is ErrSwapCorrupt.
//   - Returned durations are the synchronous IO+CPU the calling thread
//     pays (compression CPU included); asynchronous device work
//     (hotness-driven writeback) is reported via BackendStats instead.
//   - BackendStats must be a pure function of the call history, so
//     snapshot digests can fold it.
type SwapBackend interface {
	// Capacity and occupancy, in 4 KiB page slots. For compressed
	// backends TotalSlots is the nominal (uncompressed) capacity, so
	// UsedSlots/TotalSlots can exceed 1 when compression packs well.
	TotalSlots() int64
	UsedSlots() int64
	FreeSlots() int64

	// ReserveSlots takes up to n slots out of circulation (an injected
	// capacity-exhaustion fault) and returns how many it actually got;
	// UnreserveSlots returns them. ReservedSlots reports the current hold.
	ReserveSlots(n int64) int64
	UnreserveSlots(n int64)
	ReservedSlots() int64

	// Page IO under the fault state fs the manager sampled. The page
	// identifies what is stored (compressed backends model per-page
	// compressibility off its identity and hotness); flash ignores it.
	// sequential selects readahead speed for prefetchers that batch a
	// known page set. Durations are synchronous stall for the calling
	// thread.
	WritePage(p *mem.Page, fs FaultState) (time.Duration, error)
	ReadPage(p *mem.Page, fs FaultState, sequential bool) (time.Duration, error)
	Discard(p *mem.Page) error

	// BackendStats returns the backend's extended deterministic counters
	// (all zero for flash); snapshot.VMemDigest folds every field.
	BackendStats() BackendStats

	// Check verifies the backend's own accounting (slots, pool bytes, its
	// stored-page index) and returns the first inconsistency, or nil.
	// faults.Check runs it, so every invariant sweep and chaos cell does.
	Check() error
}

// BackendStats are the extended per-backend counters. Flash leaves them
// zero; zram fills them. All fields are deterministic and digest-folded.
type BackendStats struct {
	// StoredPages is how many pages currently live compressed in the pool
	// (excludes pages that fell through or were written back to flash).
	StoredPages int64
	// CompressedBytes is the pool bytes those pages occupy.
	CompressedBytes int64
	// Fallthroughs counts incompressible pages routed straight to the
	// backing flash device (size-adaptive store selection).
	Fallthroughs int64
	// Writebacks counts cold compressed pages moved to backing flash to
	// make pool room (hotness-aware writeback).
	Writebacks int64
	// FullRejects counts stores refused with ErrSwapFull because neither
	// the pool nor the backing device had room.
	FullRejects int64
	// CompressCPU / DecompressCPU are the cumulative CPU time charged to
	// faulting/reclaiming threads for (de)compression.
	CompressCPU   time.Duration
	DecompressCPU time.Duration
	// WritebackIO is the cumulative asynchronous IO spent on writeback
	// (device time, not charged to any thread — the zram analogue of
	// Stats.ReclaimIO).
	WritebackIO time.Duration
}

// BackendKind selects the swap-backend implementation.
type BackendKind int

// Backends.
const (
	// BackendFlash is the paper's flash swap partition (the default).
	BackendFlash BackendKind = iota
	// BackendZram is the Ariadne-style compressed-RAM backend with
	// size-adaptive flash fallthrough and hotness-aware writeback.
	BackendZram
)

func (k BackendKind) String() string {
	switch k {
	case BackendZram:
		return "zram"
	default:
		return "flash"
	}
}

// ParseBackend maps a backend name (case-insensitive) to its kind. The
// empty string selects flash. The second result is false for unknown
// names.
func ParseBackend(name string) (BackendKind, bool) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "flash":
		return BackendFlash, true
	case "zram":
		return BackendZram, true
	}
	return 0, false
}

// BackendNames lists the valid backend names for CLI/API error messages.
func BackendNames() []string { return []string{"flash", "zram"} }

// NewBackend builds the configured swap backend. seed feeds the zram
// compressibility model; flash ignores it.
func NewBackend(cfg SwapDeviceConfig, seed uint64) SwapBackend {
	switch cfg.Backend {
	case BackendZram:
		return NewZram(cfg, seed)
	default:
		return NewSwapDevice(cfg)
	}
}
