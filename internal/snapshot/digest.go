// Package snapshot gives the harness a forensic view of simulation state:
// canonical FNV-64 digests of every subsystem (vmem page tables and LRU,
// heap regions and object tables, the android proc table), a per-tick
// recorder that samples those digests on the simulation clock, a bisector
// that localizes the first divergent tick between two same-seed replays,
// and an on-disk checkpoint store that makes long campaigns resumable.
//
// Digests are canonical: two simulations that reached bit-identical state
// produce equal digests regardless of how they got there, because every
// fold walks its structure in a deterministic order (page index order,
// object table order, proc launch order) and encodes fixed-width values.
// They are allocation-light — one Hasher on the stack, no intermediate
// buffers — so sampling them periodically does not distort the allocation
// behaviour the simulation is measuring.
package snapshot

import (
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/heap"
	"fleetsim/internal/mem"
	"fleetsim/internal/vmem"
)

// Digest is an FNV-64a hash of a subsystem's canonical state encoding.
type Digest uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hasher folds fixed-width values into an FNV-64a state. The zero value is
// not ready to use; start with NewHasher.
type Hasher struct {
	h uint64
}

// NewHasher returns a Hasher at the FNV-64a offset basis.
func NewHasher() Hasher { return Hasher{h: fnvOffset} }

// Sum returns the current digest.
func (s *Hasher) Sum() Digest { return Digest(s.h) }

// Byte folds one byte.
func (s *Hasher) Byte(b byte) {
	s.h = (s.h ^ uint64(b)) * fnvPrime
}

// U64 folds a 64-bit value little-endian.
func (s *Hasher) U64(v uint64) {
	for i := 0; i < 8; i++ {
		s.Byte(byte(v >> (8 * i)))
	}
}

// I64 folds a signed 64-bit value.
func (s *Hasher) I64(v int64) { s.U64(uint64(v)) }

// I32 folds a signed 32-bit value.
func (s *Hasher) I32(v int32) { s.U64(uint64(uint32(v))) }

// Bool folds a boolean as one byte.
func (s *Hasher) Bool(v bool) {
	if v {
		s.Byte(1)
	} else {
		s.Byte(0)
	}
}

// Str folds a length-prefixed string (the prefix keeps "ab"+"c" distinct
// from "a"+"bc" across consecutive folds).
func (s *Hasher) Str(v string) {
	s.U64(uint64(len(v)))
	for i := 0; i < len(v); i++ {
		s.Byte(v[i])
	}
}

// Dur folds a duration as nanoseconds.
func (s *Hasher) Dur(d time.Duration) { s.I64(int64(d)) }

// Fold mixes another digest in.
func (s *Hasher) Fold(d Digest) { s.U64(uint64(d)) }

// SpaceDigest canonically encodes one address space: its counters plus
// every instantiated page's index, residency state and flag bits, in page
// index order.
func SpaceDigest(as *mem.AddressSpace) Digest {
	h := NewHasher()
	h.Str(as.Owner)
	h.I64(as.ResidentPages())
	h.I64(as.SwappedPages())
	as.ForEachPage(func(p *mem.Page) {
		h.I64(p.Index)
		h.Byte(byte(p.State))
		var flags byte
		if p.Referenced {
			flags |= 1
		}
		if p.Dirty {
			flags |= 2
		}
		if p.Hot {
			flags |= 4
		}
		if p.Pinned {
			flags |= 8
		}
		if p.OnLRU {
			flags |= 16
		}
		if p.OnActiveList {
			flags |= 32
		}
		h.Byte(flags)
		h.Dur(p.SwapOutAt)
	})
	return h.Sum()
}

// VMemDigest canonically encodes the kernel layer: lifetime fault/IO
// counters, frame and slot accounting, LRU list sizes, the corruption
// latch, and each served address space's page table (in the order given —
// callers pass spaces in proc launch order, which is deterministic).
func VMemDigest(vm *vmem.Manager, spaces []*mem.AddressSpace) Digest {
	h := NewHasher()
	st := vm.Stats()
	h.I64(st.MinorFaults)
	h.I64(st.MajorFaults)
	h.I64(st.SwapIns)
	h.I64(st.SwapOuts)
	h.Dur(st.FaultStall)
	h.I64(st.Refaults)
	h.Dur(st.RefaultStall)
	h.Dur(st.ReclaimIO)
	h.Dur(st.DirectReclaimStall)
	h.I64(st.PressureKills)
	h.I64(st.SwapRetries)
	h.Dur(st.OfflineWait)
	h.I64(st.SwapWriteFails)
	h.I64(st.OfflineGiveUps)
	h.I64(vm.Phys.UsedFrames())
	h.I64(vm.Swap.UsedSlots())
	h.I64(vm.Swap.ReservedSlots())
	// Folded again where the recorded golden digests expect the swap
	// device's page-op counts, which equal the manager's while no
	// corruption is latched.
	h.I64(st.SwapIns)
	h.I64(st.SwapOuts)
	bs := vm.Swap.BackendStats()
	h.I64(bs.StoredPages)
	h.I64(bs.CompressedBytes)
	h.I64(bs.Fallthroughs)
	h.I64(bs.Writebacks)
	h.I64(bs.FullRejects)
	h.Dur(bs.CompressCPU)
	h.Dur(bs.DecompressCPU)
	h.Dur(bs.WritebackIO)
	a, i := vm.LRUSizes()
	h.I64(a)
	h.I64(i)
	h.Bool(vm.Corrupt() != nil)
	h.U64(uint64(len(spaces)))
	for _, as := range spaces {
		h.Fold(SpaceDigest(as))
	}
	return h.Sum()
}

// HeapDigest canonically encodes one app heap: its counters, every in-use
// region's metadata (region slot order), and every live object's identity,
// placement and reference fan-out (object table order).
func HeapDigest(hp *heap.Heap) Digest {
	h := NewHasher()
	st := hp.Stats()
	h.U64(st.Allocated)
	h.I64(st.AllocatedBytes)
	h.I64(st.LiveObjects)
	h.I64(st.LiveBytes)
	h.I32(st.GCCount)
	h.I64(hp.BytesSinceGC)
	hp.Regions(func(r *heap.Region) {
		h.I32(r.ID)
		h.I64(r.Used)
		h.Bool(r.NewlyAllocated)
		h.Bool(r.FGO)
		h.Byte(byte(r.Kind))
		h.U64(uint64(len(r.Objects)))
	})
	hp.ForEachLiveObject(func(id heap.ObjectID, o heap.Object) {
		h.I32(int32(id))
		h.U64(o.Seq)
		h.I32(o.Size)
		h.I64(o.Addr)
		h.I32(o.Region)
		h.Byte(byte(o.Epoch))
		h.Dur(o.LastAccess)
		refs := hp.Refs(id)
		h.U64(uint64(len(refs)))
		for _, ref := range refs {
			h.I32(int32(ref))
		}
	})
	for _, id := range hp.Roots() {
		h.I32(int32(id))
	}
	return h.Sum()
}

// AndroidDigest canonically encodes the system layer: the clock, every
// process's lifecycle state (launch order), and the activity manager's
// kill/launch accounting.
func AndroidDigest(sys *android.System) Digest {
	h := NewHasher()
	h.Dur(sys.Clock.Now())
	procs := sys.Procs()
	h.U64(uint64(len(procs)))
	for _, p := range procs {
		h.Str(p.Name())
		h.Byte(byte(p.State()))
		h.Bool(p.Alive())
		h.Dur(p.LastForeground())
	}
	m := sys.M
	h.U64(uint64(len(m.Launches)))
	for _, l := range m.Launches {
		h.Str(l.App)
		h.Bool(l.Hot)
		h.Dur(l.Time)
		h.Dur(l.At)
	}
	h.U64(uint64(len(m.GCs)))
	h.I64(int64(m.Kills))
	h.I64(int64(m.HardKills))
	h.I64(int64(m.PSIKills))
	h.I64(int64(m.OOMKills))
	h.I64(int64(m.CrashKills))
	h.I64(int64(m.SwamKills))
	h.I64(m.SwamReclaims)
	h.I64(m.InvariantChecks)
	h.I64(m.InvariantFails)
	h.I64(m.SwapRetries)
	h.I64(m.OfflineReadAborts)
	return h.Sum()
}

// SystemDigest is one tick-boundary sample of the three subsystem digests.
// Two replays of the same (Params, seed) cell must produce identical
// sequences of SystemDigests; the first index where they differ localizes
// a determinism break in time, and the first differing field localizes it
// in space.
type SystemDigest struct {
	// Tick is the sample's ordinal (1-based).
	Tick int
	// At is the virtual time the sample was taken.
	At time.Duration
	// VMem, Heap and Android are the subsystem digests. Heap folds every
	// live process's heap in launch order.
	VMem    Digest
	Heap    Digest
	Android Digest
}

// Capture samples all three subsystem digests of a system right now. The
// vmem digest covers every process's address spaces, dead ones included
// (a process killed mid-GC can still own pages); the heap digest folds
// live processes only, since Launch retires a dead process's heap.
func Capture(sys *android.System) SystemDigest {
	procs := sys.Procs()
	spaces := make([]*mem.AddressSpace, 0, 2*len(procs)+1)
	hh := NewHasher()
	for _, p := range procs {
		spaces = append(spaces, p.App.H.AS, p.App.NativeAS)
		if p.Alive() {
			hh.Fold(HeapDigest(p.App.H))
		}
	}
	if sys.Injector != nil {
		spaces = append(spaces, sys.Injector.Spaces()...)
	}
	return SystemDigest{
		At:      sys.Clock.Now(),
		VMem:    VMemDigest(sys.VM, spaces),
		Heap:    hh.Sum(),
		Android: AndroidDigest(sys),
	}
}
