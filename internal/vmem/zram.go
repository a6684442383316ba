package vmem

import (
	"fmt"
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

// zentry is one stored page's record, held by value in the stored-page
// index. stamp is the store that made it: a clock item naming an older
// stamp is stale.
type zentry struct {
	stamp   uint64
	csize   int32 // pool bytes occupied (0 once written back / fell through)
	hot     bool  // runtime marked it hot at store time; writeback demotes once
	inFlash bool  // lives on the backing device, not in the pool
}

// zitem is one writeback clock slot: the page a pool store put there and
// that store's stamp. The item is stale once its page is read back,
// discarded, written back or stored again.
type zitem struct {
	page  *mem.Page
	stamp uint64
}

// minCompact is the stale-item count below which the clock is never
// compacted, so a small pool does not filter its clock on every store.
const minCompact = 1024

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

	// entries indexes every stored page, pool or flash. queue is the
	// writeback clock: one item per pool store in store order, of which
	// those before qhead are consumed. stores stamps the latest pool store.
	entries map[*mem.Page]zentry
	queue   []zitem
	qhead   int
	stores  uint64

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
		entries:   make(map[*mem.Page]zentry),
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

// current reports whether clock item it still names its page's pool
// entry: the page is stored, by the store that queued it, and in the pool.
func (z *Zram) current(it zitem) bool {
	e, ok := z.entries[it.page]
	return ok && e.stamp == it.stamp && !e.inFlash
}

// writeback moves cold pool entries to the backing device until need bytes
// of pool are free or nothing more can move. Entries leave in store order;
// a hot entry is demoted and re-queued once before it becomes a victim
// (hotness-aware writeback). The flash time, stretched by fs like any
// backing IO, is asynchronous device work accounted in stats.WritebackIO,
// not charged to the calling thread.
func (z *Zram) writeback(need int64, fs FaultState) {
	for z.poolFree() < need && z.qhead < len(z.queue) {
		it := z.queue[z.qhead]
		z.qhead++
		e, ok := z.entries[it.page]
		if !ok || e.stamp != it.stamp || e.inFlash {
			continue // stale
		}
		if e.hot {
			e.hot = false
			z.entries[it.page] = e
			z.queue = append(z.queue, it)
			continue
		}
		dur, err := z.backing.WritePage(nil, fs)
		if err != nil {
			z.qhead-- // no backing room: leave the item queued for a later pass
			break
		}
		z.stats.WritebackIO += dur
		z.stats.Writebacks++
		z.unpool(e.csize)
		z.entries[it.page] = zentry{inFlash: true}
	}
	z.tidy()
}

// tidy filters the consumed and stale items out of the clock, in order,
// once they outnumber both the pool entries and minCompact. Each pool
// entry has exactly one current item, so the clock then holds exactly the
// pool, and no page record the device no longer holds stays reachable
// from it. Writeback skips stale items anyway, so its order is unchanged,
// and a store, read or discard stays amortized O(1).
func (z *Zram) tidy() {
	stale := len(z.queue) - int(z.stats.StoredPages)
	if stale <= max(int(z.stats.StoredPages), minCompact) {
		return
	}
	kept := z.queue[:0]
	for _, it := range z.queue[z.qhead:] {
		if z.current(it) {
			kept = append(kept, it)
		}
	}
	clear(z.queue[len(kept):])
	z.queue, z.qhead = kept, 0
}

// unpool releases a pool entry's compressed bytes.
func (z *Zram) unpool(csize int32) {
	z.poolUsed -= int64(csize)
	z.stats.CompressedBytes -= int64(csize)
	z.stats.StoredPages--
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
	z.stores++
	z.entries[p] = zentry{stamp: z.stores, csize: int32(csize), hot: p.Hot}
	z.queue = append(z.queue, zitem{p, z.stores})
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
	z.entries[p] = zentry{inFlash: true}
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

// remove deletes p's entry, releasing its pool bytes when it was in the
// pool, and reports false when p was never stored (accounting corruption).
func (z *Zram) remove(p *mem.Page) (zentry, bool) {
	e, ok := z.entries[p]
	if !ok {
		return e, false
	}
	delete(z.entries, p)
	if !e.inFlash {
		z.unpool(e.csize)
		z.tidy()
	}
	return e, true
}

// ReadPage loads one page back: a pool hit decompresses (CPU scaled by
// fs's CPU factor, booked, and charged to the faulting thread stretched by
// its latency factor; the pool is already memory, so sequential gains
// nothing), a backing-flash entry reads the device, at readahead speed
// when sequential.
func (z *Zram) ReadPage(p *mem.Page, fs FaultState, sequential bool) (time.Duration, error) {
	e, ok := z.remove(p)
	if !ok {
		return 0, ErrSwapCorrupt
	}
	if e.inFlash {
		return z.backing.ReadPage(p, fs, sequential)
	}
	cpu := fs.cpu(z.profile.ReadTime(units.PageSize))
	z.stats.DecompressCPU += cpu
	return fs.stretch(cpu), nil
}

// Discard frees a stored page without a read.
func (z *Zram) Discard(p *mem.Page) error {
	e, ok := z.remove(p)
	if !ok {
		return ErrSwapCorrupt
	}
	if e.inFlash {
		return z.backing.Discard(p)
	}
	return nil
}

// Check verifies the backend's accounting: pool bytes used plus reserved
// within the pool; the pool byte counters and StoredPages against the pool
// entries; the backing device's slots against the entries it holds; one
// current clock item per pool entry; and the clock's stale items within
// the bound tidy keeps.
func (z *Zram) Check() error {
	if used := z.poolUsed + z.reservedPool*units.PageSize; used > z.poolBytes {
		return fmt.Errorf("zram: %d pool bytes used and %d pages reserved exceed the %d-byte pool",
			z.poolUsed, z.reservedPool, z.poolBytes)
	}
	var pool, inFlash, bytes int64
	for _, e := range z.entries {
		if e.inFlash {
			inFlash++
		} else {
			pool++
			bytes += int64(e.csize)
		}
	}
	if z.poolUsed != z.stats.CompressedBytes || z.poolUsed != bytes {
		return fmt.Errorf("zram: pool uses %d bytes, CompressedBytes says %d, pool entries sum to %d",
			z.poolUsed, z.stats.CompressedBytes, bytes)
	}
	if z.stats.StoredPages != pool {
		return fmt.Errorf("zram: StoredPages says %d, the index holds %d pool entries", z.stats.StoredPages, pool)
	}
	if got := z.backing.UsedSlots(); got != inFlash {
		return fmt.Errorf("zram: backing device uses %d slots, the index holds %d flash entries", got, inFlash)
	}
	if err := z.backing.Check(); err != nil {
		return fmt.Errorf("zram backing: %w", err)
	}
	queued := make(map[*mem.Page]bool, pool)
	for _, it := range z.queue[z.qhead:] {
		if !z.current(it) {
			continue
		}
		if queued[it.page] {
			return fmt.Errorf("zram: page %d of %s has two current clock items", it.page.Index, it.page.Space.Owner)
		}
		queued[it.page] = true
	}
	if int64(len(queued)) != pool {
		return fmt.Errorf("zram: %d pool entries but %d current clock items", pool, len(queued))
	}
	if stale := int64(len(z.queue)) - pool; stale > max(pool, minCompact) {
		return fmt.Errorf("zram: clock holds %d stale items beside %d pool entries (bound %d)",
			stale, pool, max(pool, minCompact))
	}
	return nil
}

// BackendStats returns the compression counters; snapshot digests fold
// every field.
func (z *Zram) BackendStats() BackendStats { return z.stats }
