package android

import (
	"time"

	"fleetsim/internal/apps"
	"fleetsim/internal/core"
	"fleetsim/internal/gc"
	"fleetsim/internal/heap"
	"fleetsim/internal/marvin"
	"fleetsim/internal/trace"
)

// ProcState is an app process's lifecycle state.
type ProcState int

// States.
const (
	StateForeground ProcState = iota
	StateBackground
	StateDead
)

func (s ProcState) String() string {
	switch s {
	case StateForeground:
		return "foreground"
	case StateBackground:
		return "background"
	default:
		return "dead"
	}
}

// Proc is one running app process plus its policy machinery.
type Proc struct {
	sys *System
	App *apps.App

	// Policy attachments (exactly one is non-nil besides RS/Ctrl).
	Fleet  *core.Fleet
	Marvin *marvin.Marvin
	RS     *gc.RememberedSet
	Ctrl   *gc.Controller

	state  ProcState
	alive  bool
	lastFg time.Duration

	// bgSeq invalidates scheduled background events when the app leaves
	// the background (or dies): handlers compare their captured seq.
	bgSeq int

	lastFullGC time.Duration
	fgGCs      int
}

// State returns the process state.
func (p *Proc) State() ProcState { return p.state }

// Alive reports whether the process exists.
func (p *Proc) Alive() bool { return p.alive }

// Name returns the app name.
func (p *Proc) Name() string { return p.App.Name }

// LastForeground returns the virtual time the process last became
// foreground (zero if it never has). Snapshot digests fold it in because it
// drives lmkd victim selection.
func (p *Proc) LastForeground() time.Duration { return p.lastFg }

// retire drops what a dead process holds in host memory and returns its
// heap's tables for the next launch to hand on. It keeps the Profile, the
// lifecycle fields, both address spaces with their counters and the policy
// counters, such as Fleet's swap fallbacks; the heap's regions, roots and
// scratch, the app's pools and random stream, the remembered set and the
// policies' per-object tables go to the Go collector, and so do the page
// records of each space that holds no page. A space that still holds pages
// (a Marvin GC that outlived its app's kill pinned them) keeps its records,
// so the invariant sweep still counts them.
func (p *Proc) retire() heap.Tables {
	p.RS = nil
	if p.Fleet != nil {
		p.Fleet.Retire()
	}
	if p.Marvin != nil {
		p.Marvin.Retire()
	}
	p.App.H.AS.DropPages()
	p.App.NativeAS.DropPages()
	return p.App.Retire()
}

// wirePolicy installs the policy's hooks into the heap, resolved through
// the policy registry.
func (p *Proc) wirePolicy() {
	p.RS = gc.NewRememberedSet(p.App.H)
	p.sys.Cfg.Policy.info().Wire(p)
}

// wireFleet attaches the paper's system: BGC machinery plus a composite
// write barrier feeding both the remembered set and Fleet's dirty tracking.
func wireFleet(p *Proc) {
	h := p.App.H
	p.Fleet = core.New(p.sys.Cfg.Fleet, h, p.sys.VM)
	h.WriteBarrier = func(id heap.ObjectID) {
		p.RS.Barrier(id)
		p.Fleet.WriteBarrier(id)
	}
}

// wireMarvin attaches the bookmarking-GC baseline: read barrier for access
// tracking and the allocation pin hook.
func wireMarvin(p *Proc) {
	h := p.App.H
	p.Marvin = marvin.New(h, p.sys.VM)
	h.WriteBarrier = p.RS.Barrier
	h.ReadBarrier = p.Marvin.NoteAccess
	p.App.OnAlloc = p.Marvin.PinAllocation
}

// wireDefault is the stock runtime: remembered-set write barrier only
// (used by PolicyAndroid and PolicySwam, whose novelty is system-side).
func wireDefault(p *Proc) {
	p.App.H.WriteBarrier = p.RS.Barrier
}

// backgroundGC runs the policy's cached-app collection (Table 1's "GC
// approach") and records it.
func (p *Proc) backgroundGC(now time.Duration) gc.Result {
	var res gc.Result
	switch {
	case p.Fleet != nil && p.sys.Cfg.FleetNoBGC:
		res = gc.Major(p.App.H, p.RS)
	case p.Fleet != nil:
		res = p.Fleet.RunBGC()
	case p.Marvin != nil:
		// Marvin first collects (so garbage is not uselessly written to
		// swap), then evicts cold objects at object granularity, then
		// compacts the holes the eviction left. Both collections' costs
		// count — the repeated stub-consistency pauses are exactly the
		// §3.1 drawback.
		res = p.Marvin.RunGC()
		_, _, pause := p.Marvin.SwapOutCold(now, p.App.JavaHeapBytes)
		res.PauseSTW += pause
		second := p.Marvin.RunGC()
		res.Add(second)
	default:
		res = gc.Major(p.App.H, p.RS)
	}
	p.finishGC(now, res, true)
	return res
}

// foregroundGC runs the in-use collection: minor CC cycles with an
// occasional full compaction (Marvin always runs its own collector).
func (p *Proc) foregroundGC(now time.Duration) gc.Result {
	var res gc.Result
	if p.Marvin != nil {
		res = p.Marvin.RunGC()
	} else {
		p.fgGCs++
		res = gc.Foreground(p.App.H, p.RS, p.fgGCs)
	}
	p.finishGC(now, res, false)
	return res
}

func (p *Proc) finishGC(now time.Duration, res gc.Result, background bool) {
	p.Ctrl.Update(p.App.H.LiveBytes())
	p.sys.M.GCs = append(p.sys.M.GCs, GCRecord{
		App:           p.App.Name,
		Kind:          string(res.Kind),
		Background:    background,
		ObjectsTraced: res.ObjectsTraced,
		BytesCopied:   res.BytesCopied,
		Pause:         res.PauseSTW,
		FaultStall:    res.GCFaultStall,
		CPU:           res.GCThreadCPU,
		At:            now,
	})
	c := p.sys.M.cpu(p.App.Name)
	c.GC += res.GCThreadCPU + res.PauseSTW
	p.sys.Trace.Emit(trace.Event{
		At: now, Kind: trace.KindGC, App: p.App.Name, Detail: string(res.Kind),
		Dur: res.PauseSTW + res.GCFaultStall, N: res.ObjectsTraced,
	})
	// The collector's fault IO occupies real time on the swap device and
	// feeds the lmkd thrash detector.
	p.sys.gcFaultCum += res.GCFaultStall
	p.sys.Clock.Advance(res.GCFaultStall)
	if p.sys.Cfg.CheckInvariants {
		p.sys.CheckInvariants()
	}
}

// maybeThresholdGC runs a collection if the heap-growth controller says so,
// returning its result and whether it ran.
func (p *Proc) maybeThresholdGC(now time.Duration, background bool) (gc.Result, bool) {
	if !p.Ctrl.ShouldCollect(p.App.H.BytesSinceGC) {
		return gc.Result{}, false
	}
	if background {
		return p.backgroundGC(now), true
	}
	return p.foregroundGC(now), true
}
