package experiments

import (
	"fmt"
	"time"

	"fleetsim/internal/apps"
	"fleetsim/internal/gc"
	"fleetsim/internal/heap"
	"fleetsim/internal/mem"
	"fleetsim/internal/runner"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
	"fleetsim/internal/xrand"
)

// soloRig builds a single-app rig (no activity manager): the app, its
// memory manager and a remembered set, for the object-level analysis
// figures.
type soloRig struct {
	App  *apps.App
	VM   *vmem.Manager
	RS   *gc.RememberedSet
	Ctrl *gc.Controller
	now  time.Duration

	fgGCs int
	// NoAutoGC suppresses the threshold collections (Fig. 4's explicit
	// schedule needs full control).
	NoAutoGC bool
}

func newSoloRig(p Params, profile apps.Profile) *soloRig {
	phys := mem.NewPhysical(2 * profile.TotalBytes())
	swapCfg := vmem.DefaultSwapConfig()
	swapCfg.SizeBytes = 2 * profile.TotalBytes()
	vm := vmem.NewManager(phys, vmem.NewSwapDevice(swapCfg))
	app := apps.NewApp(profile, xrand.New(p.Seed), vm)
	rs := gc.NewRememberedSet(app.H)
	app.H.WriteBarrier = rs.Barrier
	ctrl := gc.NewController(1.3)
	ctrl.MinHeadroom = 2 * units.MiB / p.Scale
	r := &soloRig{App: app, VM: vm, RS: rs, Ctrl: ctrl}
	vm.Now = func() time.Duration { return r.now }
	return r
}

// maybeGC mirrors the android runtime's foreground trigger: minor
// collections with an occasional full compaction.
func (r *soloRig) maybeGC() {
	if r.NoAutoGC || !r.Ctrl.ShouldCollect(r.App.H.BytesSinceGC) {
		return
	}
	r.fgGCs++
	gc.Foreground(r.App.H, r.RS, r.fgGCs)
	r.Ctrl.Update(r.App.H.LiveBytes())
}

func (r *soloRig) advance(d time.Duration) { r.now += d }

// runFg advances d of foreground usage in 100 ms ticks.
func (r *soloRig) runFg(d time.Duration) {
	const tick = 100 * time.Millisecond
	for end := r.now + d; r.now < end; r.advance(tick) {
		r.App.ForegroundTick(r.now, tick)
		r.maybeGC()
	}
}

// runBg advances d of background usage in 1 s ticks.
func (r *soloRig) runBg(d time.Duration) {
	const tick = time.Second
	for end := r.now + d; r.now < end; r.advance(tick) {
		r.App.BackgroundTick(r.now, tick)
	}
}

// runBgWithGC is runBg plus the foreground-style threshold trigger (used
// where the schedule is not explicit).
func (r *soloRig) runBgWithGC(d time.Duration) {
	const tick = time.Second
	for end := r.now + d; r.now < end; r.advance(tick) {
		r.App.BackgroundTick(r.now, tick)
		r.maybeGC()
	}
}

// Fig4Point is one sampled object access: which object (by allocation
// sequence number — the paper's "object ID") was touched when.
type Fig4Point struct {
	TimeSec float64
	Seq     uint64
	GC      bool // emitted by the GC thread rather than the mutator
}

// Fig4Result carries the access timeline plus the phase-change markers the
// paper annotates.
type Fig4Result struct {
	Points      []Fig4Point
	ToBackSec   float64 // fore → back switch
	GCSec       float64 // background GC moment
	ToFrontSec  float64 // hot launch
	TotalObject uint64  // largest allocation sequence issued
}

// Fig4 reproduces the motivational timeline (§3.2): start the Amazon shop
// in the foreground, background it at 20 s, observe a GC at ~37 s touch
// nearly every object, and hot-launch at 53 s. Accesses are sampled every
// 100th, as in the paper.
func Fig4(p Params) Fig4Result {
	profile := *apps.ProfileByName("AmazonShop", p.Scale)
	rig := newSoloRig(p, profile)
	res := Fig4Result{}

	rig.App.H.SampleEvery = 100
	rig.App.H.AccessSampler = func(id heap.ObjectID, write bool) {
		res.Points = append(res.Points, Fig4Point{
			TimeSec: rig.now.Seconds(),
			Seq:     rig.App.H.Object(id).Seq,
		})
	}

	rig.App.BuildInitial(0)
	rig.runFg(20 * time.Second)
	res.ToBackSec = rig.now.Seconds()
	rig.App.EnterBackground()
	rig.NoAutoGC = true // the background GC below happens on the paper's schedule
	rig.runBg(17 * time.Second)

	// The background GC: it visits every live object; sample every 100th,
	// as the paper's spike shows.
	res.GCSec = rig.now.Seconds()
	gc.Major(rig.App.H, rig.RS)
	i := 0
	h := rig.App.H
	for id := heap.ObjectID(1); int(id) < h.ObjectTableSize(); id++ {
		o := h.Object(id)
		if !o.Live() {
			continue
		}
		if i%100 == 0 {
			res.Points = append(res.Points, Fig4Point{TimeSec: rig.now.Seconds(), Seq: o.Seq, GC: true})
		}
		i++
	}
	rig.advance(500 * time.Millisecond)
	rig.runBg(15500 * time.Millisecond)

	// Hot launch at ~53 s.
	res.ToFrontSec = rig.now.Seconds()
	rig.App.HotLaunchAccess(rig.now)
	rig.App.LaunchAllocBurst(rig.now)
	rig.runFg(7 * time.Second)

	res.TotalObject = rig.App.H.Stats().Allocated
	return res
}

// Fig5Result carries the fore/background object lifetime distributions and
// footprints (§4.1).
type Fig5Result struct {
	// LifetimeFGO[k] and LifetimeBGO[k] are the fraction of objects of
	// that epoch whose lifetime was exactly k GC cycles, k in [0,
	// Cycles); the final Alive entries are the fraction still alive after
	// all cycles (the paper's ">15" bar).
	LifetimeFGO []float64
	LifetimeBGO []float64
	AliveFGO    float64
	AliveBGO    float64
	Cycles      int

	// Footprints per app (Fig. 5c): FGO vs BGO megabytes at the first
	// background GC, scaled back up to device scale.
	Footprints []Fig5Footprint
}

// Fig5Footprint is one app's bar pair in Fig. 5c.
type Fig5Footprint struct {
	App    string
	FGOMiB float64
	BGOMiB float64
}

// Fig5 reproduces the lifetime study: run an app in the foreground, switch
// it to the background, then GC every 15 seconds and watch which epoch's
// objects survive. FGO = allocated before the switch (§4.1).
func Fig5(p Params) Fig5Result {
	const cycles = 15
	res := Fig5Result{Cycles: cycles}

	// Lifetime distribution on Twitter, as the paper.
	{
		profile := *apps.ProfileByName("Twitter", p.Scale)
		rig := newSoloRig(p, profile)
		rig.App.BuildInitial(0)
		rig.runFg(60 * time.Second) // abbreviated "use for 10 minutes"
		rig.App.EnterBackground()

		// Snapshot epochs by allocation sequence. Everything alive now is
		// FGO by definition; BGO tracked as they appear.
		type rec struct {
			fgo      bool
			survived int
			dead     bool
		}
		objs := map[uint64]*rec{}
		h := rig.App.H
		snapshot := func() {
			for id := heap.ObjectID(1); int(id) < h.ObjectTableSize(); id++ {
				o := h.Object(id)
				if !o.Live() {
					continue
				}
				if _, ok := objs[o.Seq]; !ok {
					objs[o.Seq] = &rec{fgo: o.Epoch == heap.EpochForeground}
				}
			}
		}
		snapshot()
		for c := 0; c < cycles; c++ {
			rig.runBg(15 * time.Second)
			// Track BGO allocated this interval before they can die.
			snapshot()
			gc.Major(h, rig.RS)
			// Mark survivors.
			alive := map[uint64]bool{}
			for id := heap.ObjectID(1); int(id) < h.ObjectTableSize(); id++ {
				if o := h.Object(id); o.Live() {
					alive[o.Seq] = true
				}
			}
			for seq, r := range objs {
				if r.dead {
					continue
				}
				if alive[seq] {
					r.survived++
				} else {
					r.dead = true
				}
			}
		}
		res.LifetimeFGO = make([]float64, cycles)
		res.LifetimeBGO = make([]float64, cycles)
		var nF, nB, aliveF, aliveB float64
		for _, r := range objs {
			if r.fgo {
				nF++
			} else {
				nB++
			}
			if !r.dead {
				if r.fgo {
					aliveF++
				} else {
					aliveB++
				}
				continue
			}
			k := r.survived
			if k >= cycles {
				k = cycles - 1
			}
			if r.fgo {
				res.LifetimeFGO[k]++
			} else {
				res.LifetimeBGO[k]++
			}
		}
		for k := 0; k < cycles; k++ {
			if nF > 0 {
				res.LifetimeFGO[k] /= nF
			}
			if nB > 0 {
				res.LifetimeBGO[k] /= nB
			}
		}
		if nF > 0 {
			res.AliveFGO = aliveF / nF
		}
		if nB > 0 {
			res.AliveBGO = aliveB / nB
		}
	}

	// Footprints across several apps (Fig. 5c). Each app is an independent
	// solo rig, so the bars run as pool tasks in fixed order.
	names := []string{"Twitter", "Facebook", "Youtube", "Spotify", "AmazonShop", "Chrome", "GoogleMaps", "Telegram"}
	res.Footprints = runner.Map(names, func(_ int, name string) Fig5Footprint {
		profile := *apps.ProfileByName(name, p.Scale)
		rig := newSoloRig(p, profile)
		rig.App.BuildInitial(0)
		rig.runFg(30 * time.Second)
		rig.App.EnterBackground()
		rig.runBg(15 * time.Second)
		var fgo, bgo int64
		h := rig.App.H
		for id := heap.ObjectID(1); int(id) < h.ObjectTableSize(); id++ {
			o := h.Object(id)
			if !o.Live() {
				continue
			}
			if o.Epoch == heap.EpochForeground {
				fgo += int64(o.Size)
			} else {
				bgo += int64(o.Size)
			}
		}
		return Fig5Footprint{
			App:    name,
			FGOMiB: float64(fgo*p.Scale) / float64(units.MiB),
			BGOMiB: float64(bgo*p.Scale) / float64(units.MiB),
		}
	})
	return res
}

// FormatFig5 renders the key Fig. 5 facts.
func FormatFig5(r Fig5Result) string {
	out := "Fig 5 — fore/background object lifetime and footprint\n"
	out += fmt.Sprintf("  FGO alive after %d GCs: %.0f%%   BGO alive: %.0f%%\n",
		r.Cycles, 100*r.AliveFGO, 100*r.AliveBGO)
	if len(r.LifetimeBGO) > 2 {
		early := r.LifetimeBGO[0] + r.LifetimeBGO[1] + r.LifetimeBGO[2]
		out += fmt.Sprintf("  BGO dead within 3 GCs: %.0f%%\n", 100*early)
	}
	for _, f := range r.Footprints {
		out += fmt.Sprintf("  %-12s FGO %7.1f MiB   BGO %6.1f MiB\n", f.App, f.FGOMiB, f.BGOMiB)
	}
	return out
}
