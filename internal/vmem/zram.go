package vmem

import (
	"time"

	"fleetsim/internal/mem"
	"fleetsim/internal/units"
)

// ZramConfig sizes the compressed-RAM backend.
type ZramConfig struct {
	// PoolBytes is the DRAM carved out for the compressed pool. The caller
	// (DeviceConfig) must subtract it from system DRAM.
	PoolBytes int64
	// BackingBytes sizes the flash partition behind the pool, serving
	// incompressible fallthrough and cold-page writeback. 0 leaves a
	// zero-slot backing device (pool-only zram).
	BackingBytes int64
	// BackingProfile is the backing partition's performance envelope.
	BackingProfile DeviceProfile
}

// incompressibleBytes: pages whose modeled compressed size exceeds this
// (three quarters of a page, 3072 bytes) are not worth compressing and
// fall through to the backing device (Ariadne's size-adaptive store
// selection).
const incompressibleBytes = 3 * units.PageSize / 4

// zkey identifies a stored page across re-stores: the same virtual page
// always compresses to the same size, which is what makes the backend
// deterministic under replay.
type zkey struct {
	owner string
	index int64
}

// zentry is one stored page's record.
type zentry struct {
	key     zkey
	csize   int64 // pool bytes occupied (0 once written back / fell through)
	hot     bool  // runtime marked it hot at store time; writeback demotes once
	inFlash bool  // lives on the backing device, not in the pool
	dead    bool  // read back or discarded; lazily skipped by the queue
}

// Zram is the Ariadne-style compressed swap backend: pages compress into a
// DRAM pool with a seeded per-page ratio model; incompressible pages fall
// through to a backing flash partition; when the pool fills, cold pages are
// written back to flash in store order (hot pages get one second chance).
// Store/load charge compression CPU to the calling thread — the cost GC
// pauses and hot-launch latency pay for the extra capacity.
type Zram struct {
	profile DeviceProfile // compress/decompress throughput, op latency
	seed    uint64
	backing *SwapDevice // zero slots when BackingBytes == 0

	poolBytes    int64
	poolUsed     int64
	reservedPool int64 // pages held by an injected zram-full fault

	entries map[zkey]*zentry
	queue   []*zentry // writeback clock, store order
	qhead   int

	stats BackendStats
}

// NewZram builds the compressed backend from cfg (cfg.Backend is assumed
// BackendZram; cfg.Profile is the compression envelope). seed feeds the
// per-page compressibility model.
func NewZram(cfg SwapDeviceConfig, seed uint64) *Zram {
	zc := cfg.Zram
	return &Zram{
		profile:   cfg.Profile,
		seed:      seed,
		backing:   NewSwapDevice(SwapDeviceConfig{SizeBytes: zc.BackingBytes, Profile: zc.BackingProfile}),
		poolBytes: zc.PoolBytes,
		entries:   make(map[zkey]*zentry),
	}
}

// csizeOf is the seeded compressibility model: a deterministic hash of
// (seed, owner, page index) drives a distribution skewed toward
// well-compressing pages (u² keeps the mean ratio near the ~2.8:1 Ariadne
// reports) with a ~9% incompressible tail. The same page always compresses
// to the same size, so replay and resume see identical pool occupancy.
func (z *Zram) csizeOf(p *mem.Page) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	mix(z.seed)
	for i := 0; i < len(p.Space.Owner); i++ {
		h ^= uint64(p.Space.Owner[i])
		h *= prime64
	}
	mix(uint64(p.Index))
	u := float64(h>>11) / (1 << 53)
	frac := 0.05 + float64(0.85*u*u)
	return int64(frac * float64(units.PageSize))
}

// TotalSlots is the nominal capacity: pool pages (uncompressed accounting)
// plus the backing partition. Compression can pack UsedSlots past the pool
// share, so UsedSlots/TotalSlots may exceed what the pool alone suggests —
// occupancy-based policies (lmkd's 70% threshold) still behave sensibly.
func (z *Zram) TotalSlots() int64 {
	return units.PagesFor(z.poolBytes) + z.backing.TotalSlots()
}

// UsedSlots returns the number of pages currently stored, wherever they
// live (pool or backing flash).
func (z *Zram) UsedSlots() int64 { return z.stats.StoredPages + z.backing.UsedSlots() }

// poolFree returns the pool bytes available for new stores.
func (z *Zram) poolFree() int64 {
	return z.poolBytes - z.poolUsed - z.reservedPool*units.PageSize
}

// FreeSlots conservatively converts free pool bytes at 1:1 (a page is
// guaranteed to fit iff a full page of pool is free) plus free backing
// slots. Never negative by construction.
func (z *Zram) FreeSlots() int64 {
	free := z.poolFree() / units.PageSize
	if free < 0 {
		free = 0
	}
	return free + z.backing.FreeSlots()
}

// ReserveSlots takes up to n page-slots out of circulation — pool first,
// then the backing device — and returns how many it got. The zram-full
// fault uses it to model another subsystem flooding the pool.
func (z *Zram) ReserveSlots(n int64) int64 {
	if n < 0 {
		n = 0
	}
	take := z.poolFree() / units.PageSize
	if take > n {
		take = n
	}
	z.reservedPool += take
	got := take + z.backing.ReserveSlots(n-take)
	return got
}

// UnreserveSlots returns reserved slots: pool holds first, then backing.
func (z *Zram) UnreserveSlots(n int64) {
	if n <= 0 {
		return
	}
	take := z.reservedPool
	if take > n {
		take = n
	}
	z.reservedPool -= take
	z.backing.UnreserveSlots(n - take)
}

// ReservedSlots reports the current fault-injected hold.
func (z *Zram) ReservedSlots() int64 { return z.reservedPool + z.backing.ReservedSlots() }

// writeback moves cold pool entries to the backing device until need bytes
// of pool are free or nothing more can move. Entries leave in store order;
// a hot entry is demoted and re-queued once before it becomes a victim
// (hotness-aware writeback). The flash time, stretched by fs like any
// backing IO, is asynchronous device work accounted in stats.WritebackIO,
// not charged to the calling thread.
func (z *Zram) writeback(need int64, fs FaultState) {
	for z.poolFree() < need && z.qhead < len(z.queue) {
		e := z.queue[z.qhead]
		z.qhead++
		if e.dead || e.inFlash {
			continue
		}
		if e.hot {
			e.hot = false
			z.queue = append(z.queue, e)
			continue
		}
		dur, err := z.backing.WritePage(nil, fs)
		if err != nil {
			z.qhead-- // no backing room: leave e queued for a later pass
			return
		}
		z.stats.WritebackIO += dur
		z.stats.Writebacks++
		z.poolUsed -= e.csize
		z.stats.CompressedBytes -= e.csize
		z.stats.StoredPages--
		e.csize = 0
		e.inFlash = true
	}
	// Compact the queue once the dead prefix dominates, keeping the
	// amortized cost per store O(1).
	if z.qhead > 1024 && z.qhead*2 > len(z.queue) {
		z.queue = append(z.queue[:0], z.queue[z.qhead:]...)
		z.qhead = 0
	}
}

// storeInPool compresses the page into the pool, booking the compression
// CPU scaled by fs's CPU factor and returning it stretched by its latency
// factor.
func (z *Zram) storeInPool(p *mem.Page, csize int64, fs FaultState) (time.Duration, error) {
	if z.poolFree() < csize {
		z.writeback(csize, fs)
	}
	if z.poolFree() < csize {
		return 0, ErrSwapFull
	}
	e := &zentry{key: zkey{p.Space.Owner, p.Index}, csize: csize, hot: p.Hot}
	z.entries[e.key] = e
	z.queue = append(z.queue, e)
	z.poolUsed += csize
	z.stats.StoredPages++
	z.stats.CompressedBytes += csize
	cpu := fs.cpu(z.profile.WriteTime(units.PageSize))
	z.stats.CompressCPU += cpu
	return fs.stretch(cpu), nil
}

// storeInFlash routes the page to the backing device uncompressed.
func (z *Zram) storeInFlash(p *mem.Page, fs FaultState) (time.Duration, error) {
	dur, err := z.backing.WritePage(p, fs)
	if err != nil {
		return 0, err
	}
	e := &zentry{key: zkey{p.Space.Owner, p.Index}, inFlash: true}
	z.entries[e.key] = e
	return dur, nil
}

// WritePage stores one page: compressible pages go to the pool (compression
// CPU charged to the caller), incompressible ones fall through to backing
// flash, and a pool with no room after writeback spills to flash too. Only
// when every route is exhausted does it reject with ErrSwapFull.
func (z *Zram) WritePage(p *mem.Page, fs FaultState) (time.Duration, error) {
	csize := z.csizeOf(p)
	if csize > incompressibleBytes {
		// Size-adaptive selection: not worth the CPU, go straight to flash.
		// (Compressing it is still better than failing if flash is full.)
		if dur, err := z.storeInFlash(p, fs); err == nil {
			z.stats.Fallthroughs++
			return dur, nil
		}
	}
	dur, err := z.storeInPool(p, csize, fs)
	if err == ErrSwapFull {
		if dur2, err2 := z.storeInFlash(p, fs); err2 == nil {
			return dur2, nil
		}
		z.stats.FullRejects++
	}
	return dur, err
}

// lookup removes and returns the entry for p, or nil if it was never
// stored (accounting corruption).
func (z *Zram) lookup(p *mem.Page) *zentry {
	e, ok := z.entries[zkey{p.Space.Owner, p.Index}]
	if !ok {
		return nil
	}
	delete(z.entries, e.key)
	e.dead = true
	return e
}

// ReadPage loads one page back: a pool hit decompresses (CPU scaled by
// fs's CPU factor, booked, and charged to the faulting thread stretched by
// its latency factor; the pool is already memory, so sequential gains
// nothing), a backing-flash entry reads the device, at readahead speed
// when sequential.
func (z *Zram) ReadPage(p *mem.Page, fs FaultState, sequential bool) (time.Duration, error) {
	e := z.lookup(p)
	if e == nil {
		return 0, ErrSwapCorrupt
	}
	if e.inFlash {
		return z.backing.ReadPage(p, fs, sequential)
	}
	z.poolUsed -= e.csize
	z.stats.CompressedBytes -= e.csize
	z.stats.StoredPages--
	cpu := fs.cpu(z.profile.ReadTime(units.PageSize))
	z.stats.DecompressCPU += cpu
	return fs.stretch(cpu), nil
}

// Discard frees a stored page without a read.
func (z *Zram) Discard(p *mem.Page) error {
	e := z.lookup(p)
	if e == nil {
		return ErrSwapCorrupt
	}
	if e.inFlash {
		return z.backing.Discard(p)
	}
	z.poolUsed -= e.csize
	z.stats.CompressedBytes -= e.csize
	z.stats.StoredPages--
	return nil
}

// BackendStats returns the compression counters; snapshot digests fold
// every field.
func (z *Zram) BackendStats() BackendStats { return z.stats }
