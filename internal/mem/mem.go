// Package mem models the machine's physical memory and per-process virtual
// address spaces at page granularity. It deliberately knows nothing about
// LRU policy, swap devices or reclaim — that lives in internal/vmem — so the
// bookkeeping here stays small and easy to test: frames are a counted
// resource, pages are typed records with a state machine.
package mem

import (
	"errors"
	"fmt"
	"time"

	"fleetsim/internal/units"
)

// ErrNoFrames reports that DRAM has no free frame for a residency
// transition. The caller (vmem) must reclaim and retry, or surface the
// condition as an out-of-memory event.
var ErrNoFrames = errors.New("mem: no free frames")

// ErrPageState reports a residency transition applied to a page in the
// wrong state — accounting corruption if it were allowed to proceed.
var ErrPageState = errors.New("mem: page in wrong state for transition")

// PageState is the residency state of one virtual page.
type PageState uint8

const (
	// PageUnmapped means the page has never been touched; it consumes no
	// frame and no swap slot (like an untouched anonymous mapping).
	PageUnmapped PageState = iota
	// PageResident means the page occupies a DRAM frame.
	PageResident
	// PageSwapped means the page's contents live in a swap slot.
	PageSwapped
)

func (s PageState) String() string {
	switch s {
	case PageUnmapped:
		return "unmapped"
	case PageResident:
		return "resident"
	case PageSwapped:
		return "swapped"
	default:
		return fmt.Sprintf("PageState(%d)", uint8(s))
	}
}

// Page is one 4 KB virtual page of some address space. LRU linkage fields
// are owned by internal/vmem but live here so a page can be located in O(1)
// from either layer without a side table.
type Page struct {
	Space *AddressSpace // owning address space
	Index int64         // page number within the space
	State PageState

	// Referenced is the hardware "accessed" bit analogue: set on every
	// touch, cleared and sampled by the reclaim scanner.
	Referenced bool
	// Dirty means the page must be written to swap before its frame can be
	// reused (all anonymous pages are effectively dirty once written).
	Dirty bool
	// Hot marks pages that runtime-guided swap asked the kernel to keep in
	// memory (madvise HOT_RUNTIME). Reclaim skips them unless nothing else
	// is left.
	Hot bool
	// Pinned marks unevictable pages (mlock analogue); reclaim never takes
	// them. Marvin pins sub-threshold object pages and reference stubs.
	Pinned bool

	// SwapOutAt is the virtual time the page was last written to swap;
	// the reclaim monitor uses it to detect refaults (thrashing).
	SwapOutAt time.Duration

	// LRU linkage (intrusive doubly-linked list), managed by internal/vmem.
	Prev, Next   *Page
	OnActiveList bool // which LRU list the page is on
	OnLRU        bool
}

// Addr returns the virtual byte address of the page start.
func (p *Page) Addr() int64 { return p.Index * units.PageSize }

// pageChunk is how many Page records are carved from one backing
// allocation when pages are lazily instantiated.
const pageChunk = 512

// AddressSpace is one process's anonymous memory, lazily populated.
//
// The page table is a contiguous array indexed by page number: the heap
// and native segments Reserve ranges from a bump pointer starting at 0,
// so page indexes are dense and a slice beats a hash map on every lookup
// (the per-object-access hot path). Entries stay nil until first touch;
// Page records are carved from chunked backing arrays so instantiation
// costs one allocation per pageChunk pages, not one per page.
type AddressSpace struct {
	// Owner is an opaque tag (app name) used in diagnostics and by the
	// kernel's per-process accounting.
	Owner string

	pages []*Page // indexed by page number; nil = never instantiated
	spare []Page  // chunk allocator for new Page records
	// brk is the bump pointer for fresh region allocation (bytes).
	brk int64

	resident int64 // pages currently in DRAM
	swapped  int64 // pages currently in swap
}

// NewAddressSpace returns an empty address space for the named owner.
func NewAddressSpace(owner string) *AddressSpace {
	return &AddressSpace{Owner: owner}
}

// Reserve carves out size bytes of virtual address range (page aligned up)
// and returns its base address. No pages are instantiated until touched.
func (as *AddressSpace) Reserve(size int64) int64 {
	base := as.brk
	n := units.PagesFor(size)
	as.brk += n * units.PageSize
	if need := int(as.brk / units.PageSize); need > len(as.pages) {
		if need <= cap(as.pages) {
			as.pages = as.pages[:need]
		} else {
			grown := make([]*Page, need, need+need/2)
			copy(grown, as.pages)
			as.pages = grown
		}
	}
	return base
}

// newPage instantiates the record for page idx from the chunk allocator.
func (as *AddressSpace) newPage(idx int64) *Page {
	if len(as.spare) == 0 {
		as.spare = make([]Page, pageChunk)
	}
	p := &as.spare[0]
	as.spare = as.spare[1:]
	p.Space = as
	p.Index = idx
	as.pages[idx] = p
	return p
}

// Page returns the page containing addr, instantiating it (Unmapped) on
// first use. addr must be inside a previously Reserved range.
func (as *AddressSpace) Page(addr int64) *Page {
	if addr < 0 || addr >= as.brk {
		panic(fmt.Sprintf("mem: address %#x outside reserved range [0,%#x) of %s", addr, as.brk, as.Owner))
	}
	return as.PageAt(units.PageIndex(addr))
}

// PageByIndex returns the page with the given index, or nil if it was never
// touched.
func (as *AddressSpace) PageByIndex(idx int64) *Page {
	if idx < 0 || idx >= int64(len(as.pages)) {
		return nil
	}
	return as.pages[idx]
}

// PageAt returns the page with the given index, instantiating it on first
// use. This is the allocation-free fast path for per-access touching: a
// bounds check and one slice load.
func (as *AddressSpace) PageAt(idx int64) *Page {
	if idx < 0 || idx >= int64(len(as.pages)) {
		panic(fmt.Sprintf("mem: page %d outside reserved range of %s", idx, as.Owner))
	}
	if p := as.pages[idx]; p != nil {
		return p
	}
	return as.newPage(idx)
}

// ForRange visits every instantiated page overlapping [addr, addr+size)
// in address order without allocating.
func (as *AddressSpace) ForRange(addr, size int64, fn func(*Page)) {
	if size <= 0 {
		return
	}
	first := units.PageIndex(addr)
	last := units.PageIndex(addr + size - 1)
	if first < 0 {
		first = 0
	}
	if max := int64(len(as.pages)) - 1; last > max {
		last = max
	}
	for i := first; i <= last; i++ {
		if p := as.pages[i]; p != nil {
			fn(p)
		}
	}
}

// EnsureForRange instantiates (but does not make resident) and visits
// every page of [addr, addr+size) in address order, without allocating
// beyond the page records themselves.
func (as *AddressSpace) EnsureForRange(addr, size int64, fn func(*Page)) {
	if size <= 0 {
		return
	}
	first := units.PageIndex(addr)
	last := units.PageIndex(addr + size - 1)
	for i := first; i <= last; i++ {
		fn(as.PageAt(i))
	}
}

// PagesInRange returns every instantiated page overlapping [addr,
// addr+size). Prefer ForRange on hot paths; this allocates the result.
func (as *AddressSpace) PagesInRange(addr, size int64) []*Page {
	if size <= 0 {
		return nil
	}
	out := make([]*Page, 0, units.PageIndex(addr+size-1)-units.PageIndex(addr)+1)
	as.ForRange(addr, size, func(p *Page) { out = append(out, p) })
	return out
}

// EnsureRange instantiates (but does not make resident) every page in
// [addr, addr+size) and returns them in order. Prefer EnsureForRange on
// hot paths; this allocates the result.
func (as *AddressSpace) EnsureRange(addr, size int64) []*Page {
	if size <= 0 {
		return nil
	}
	out := make([]*Page, 0, units.PageIndex(addr+size-1)-units.PageIndex(addr)+1)
	as.EnsureForRange(addr, size, func(p *Page) { out = append(out, p) })
	return out
}

// ResidentPages returns the number of pages in DRAM.
func (as *AddressSpace) ResidentPages() int64 { return as.resident }

// SwappedPages returns the number of pages in swap.
func (as *AddressSpace) SwappedPages() int64 { return as.swapped }

// ResidentBytes returns DRAM usage in bytes.
func (as *AddressSpace) ResidentBytes() int64 { return as.resident * units.PageSize }

// FootprintBytes returns resident+swapped in bytes.
func (as *AddressSpace) FootprintBytes() int64 {
	return (as.resident + as.swapped) * units.PageSize
}

// DropPages forgets the page table and every page record of a space that
// holds no resident and no swapped page, and reports whether it did. The
// space keeps its Owner and counters, and ForEachPage then visits nothing.
// A space that still holds a page keeps every record. Only a dead
// process's space is dropped: touching a dropped space panics.
func (as *AddressSpace) DropPages() bool {
	if as.resident != 0 || as.swapped != 0 {
		return false
	}
	as.pages, as.spare = nil, nil
	return true
}

// ForEachPage visits every instantiated page in address order.
func (as *AddressSpace) ForEachPage(fn func(*Page)) {
	for _, p := range as.pages {
		if p != nil {
			fn(p)
		}
	}
}

// noteTransition updates resident/swapped counters for a state change.
// Called by Physical (same package) when it moves pages.
func (as *AddressSpace) noteTransition(from, to PageState) {
	switch from {
	case PageResident:
		as.resident--
	case PageSwapped:
		as.swapped--
	}
	switch to {
	case PageResident:
		as.resident++
	case PageSwapped:
		as.swapped++
	}
}

// Physical tracks the machine's DRAM frames as a counted resource.
type Physical struct {
	TotalFrames int64
	usedFrames  int64
}

// NewPhysical returns DRAM with the given byte capacity.
func NewPhysical(bytes int64) *Physical {
	return &Physical{TotalFrames: units.PagesFor(bytes)}
}

// FreeFrames returns the number of unused frames.
func (ph *Physical) FreeFrames() int64 { return ph.TotalFrames - ph.usedFrames }

// UsedFrames returns the number of frames backing resident pages.
func (ph *Physical) UsedFrames() int64 { return ph.usedFrames }

// MakeResident transitions p into DRAM, consuming one frame. Returns
// ErrNoFrames when DRAM is exhausted; the caller (vmem) reclaims and
// retries, or surfaces the condition as an out-of-memory event.
func (ph *Physical) MakeResident(p *Page) error {
	if p.State == PageResident {
		return nil
	}
	if ph.FreeFrames() <= 0 {
		return ErrNoFrames
	}
	old := p.State
	p.State = PageResident
	ph.usedFrames++
	p.Space.noteTransition(old, PageResident)
	return nil
}

// MoveToSwap transitions a resident page out of DRAM into swap state,
// releasing its frame. Swap-slot accounting is the caller's (vmem's) job.
// Returns ErrPageState if the page is not resident.
func (ph *Physical) MoveToSwap(p *Page) error {
	if p.State != PageResident {
		return fmt.Errorf("%w: MoveToSwap on %v page", ErrPageState, p.State)
	}
	p.State = PageSwapped
	ph.usedFrames--
	p.Space.noteTransition(PageResident, PageSwapped)
	return nil
}

// Release frees a page entirely (e.g. its heap region was reclaimed by GC).
// Resident pages give back their frame; swapped pages give back their slot
// via the caller.
func (ph *Physical) Release(p *Page) {
	old := p.State
	if old == PageResident {
		ph.usedFrames--
	}
	p.State = PageUnmapped
	p.Dirty = false
	p.Referenced = false
	p.Hot = false
	p.Pinned = false
	p.Space.noteTransition(old, PageUnmapped)
}
