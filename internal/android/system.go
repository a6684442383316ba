package android

import (
	"errors"
	"fmt"
	"time"

	"fleetsim/internal/apps"
	"fleetsim/internal/faults"
	"fleetsim/internal/gc"
	"fleetsim/internal/heap"
	"fleetsim/internal/mem"
	"fleetsim/internal/simclock"
	"fleetsim/internal/trace"
	"fleetsim/internal/vmem"
	"fleetsim/internal/xrand"
)

// System is the simulated device: the activity manager, the kernel memory
// manager and all running processes.
type System struct {
	Cfg   SystemConfig
	Clock *simclock.Clock
	VM    *vmem.Manager
	M     *Metrics

	// Trace, when set via EnableTrace, records launch/GC/kill/state
	// events (the systrace analogue).
	Trace *trace.Log

	// Injector is the fault injector (nil unless Cfg.Faults is set).
	Injector *faults.Injector

	rng      *xrand.Rand
	procs    []*Proc
	fg       *Proc
	reclaims int64

	// stall is the sliding window of the one stall monitor NewSystem
	// starts (psiTick or swamTick); each monitor keeps its own cooldown.
	// gcFaultCum, the PSI monitor's input, is the cumulative GC-induced
	// swap-in stall.
	stall        stallWindow
	gcFaultCum   time.Duration
	lastPSIKill  time.Duration
	lastSwamKill time.Duration
}

// stallWindow is the sliding window both lmkd stall monitors measure over:
// (time, cumulative stall) samples, trimmed to the window span but always
// keeping one sample at or beyond the window boundary, so the measured
// span covers at least the whole window even when long stalls advance the
// clock in big jumps.
type stallWindow struct {
	span    time.Duration
	samples []stallSample
}

type stallSample struct {
	at    time.Duration
	stall time.Duration
}

// observe records the cumulative stall cum at now and returns the fraction
// of wall time stalled since the oldest retained sample. ok is false (and
// frac zero) until the samples span half a window.
func (w *stallWindow) observe(now, cum time.Duration) (frac float64, ok bool) {
	w.samples = append(w.samples, stallSample{now, cum})
	cut := 0
	for cut+1 < len(w.samples)-1 && now-w.samples[cut+1].at > w.span {
		cut++
	}
	w.samples = w.samples[cut:]
	oldest := w.samples[0]
	elapsed := now - oldest.at
	if elapsed < w.span/2 {
		return 0, false
	}
	return float64(cum-oldest.stall) / float64(elapsed), true
}

// NewSystem boots a device with the given configuration.
func NewSystem(cfg SystemConfig) *System {
	phys := mem.NewPhysical(cfg.Device.AppBytes())
	swap := vmem.NewBackend(cfg.Device.Swap, cfg.Seed)
	s := &System{
		Cfg:   cfg,
		Clock: simclock.New(),
		VM:    vmem.NewManager(phys, swap),
		M:     NewMetrics(),
		rng:   xrand.New(cfg.Seed),
	}
	s.VM.OnPressure = s.onPressure
	s.VM.Now = s.Clock.Now
	s.VM.MaxOfflineWait = cfg.MaxOfflineWait
	if cfg.KswapdLowFrac > 0 {
		s.VM.LowWatermark = int64(float64(phys.TotalFrames) * cfg.KswapdLowFrac)
		s.VM.HighWatermark = int64(float64(phys.TotalFrames) * cfg.KswapdHighFrac)
	}
	switch {
	case cfg.Policy == PolicySwam && cfg.Swam.Window > 0:
		s.stall.span = cfg.Swam.Window
		s.Clock.ScheduleAfter(time.Second, "swam", s.swamTick)
	case cfg.PSIWindow > 0:
		s.stall.span = cfg.PSIWindow
		s.Clock.ScheduleAfter(time.Second, "psi", s.psiTick)
	}
	if cfg.Faults != nil {
		s.Injector = faults.NewInjector(*cfg.Faults, cfg.Seed^0x9e3779b97f4a7c15, s.Clock, s.VM)
		s.Injector.OnAppCrash = s.crashKill
		s.Injector.Start()
	}
	if cfg.CheckInvariants {
		every := int64(cfg.InvariantEvery)
		if every <= 0 {
			every = 64
		}
		s.VM.AfterReclaim = func() {
			s.reclaims++
			if s.reclaims%every == 0 {
				s.CheckInvariants()
			}
		}
	}
	return s
}

// CheckInvariants cross-validates heap-region accounting against the page
// table, the LRU lists and the swap device across every process (plus the
// injector's own storm space). Violations are recorded in Metrics and
// returned; an empty slice means the layers agree.
func (s *System) CheckInvariants() []string {
	s.M.InvariantChecks++
	s.SyncVMStats()
	spaces := make([]*mem.AddressSpace, 0, 2*len(s.procs)+1)
	heaps := make([]*heap.Heap, 0, len(s.procs))
	for _, p := range s.procs {
		spaces = append(spaces, p.App.H.AS, p.App.NativeAS)
		heaps = append(heaps, p.App.H)
	}
	if s.Injector != nil {
		spaces = append(spaces, s.Injector.Spaces()...)
	}
	v := faults.Check(s.VM, spaces, heaps)
	if len(v) > 0 {
		s.M.InvariantFails++
		if room := 32 - len(s.M.InvariantViolations); room > 0 {
			if len(v) < room {
				room = len(v)
			}
			s.M.InvariantViolations = append(s.M.InvariantViolations, v[:room]...)
		}
	}
	return v
}

// SyncVMStats mirrors the kernel layer's retry/abort counters into
// Metrics, so reports that only see Metrics still show swap-degradation
// pressure.
func (s *System) SyncVMStats() {
	st := s.VM.Stats()
	s.M.SwapRetries = st.SwapRetries
	s.M.OfflineReadAborts = st.OfflineGiveUps
}

// oomKill is the last-resort OOM path. By the time an ErrOOM reaches here,
// ensureFrame has already escalated through reclaim and lmkd's background
// victims and found nothing, so the faulting process itself dies — the
// Android OOM-killer analogue — and the simulation continues instead of
// aborting. Non-OOM faults (latched corruption) kill the process too, but
// are counted as crashes.
func (s *System) oomKill(p *Proc, err error) {
	if !p.alive {
		return
	}
	if errors.Is(err, vmem.ErrOOM) {
		s.M.OOMKills++
		s.Trace.Emit(trace.Event{At: s.Clock.Now(), Kind: trace.KindKill, App: p.Name(), Detail: "oom"})
	} else {
		s.M.CrashKills++
		s.Trace.Emit(trace.Event{At: s.Clock.Now(), Kind: trace.KindKill, App: p.Name(), Detail: "fault"})
	}
	s.Kill(p)
}

// crashKill is the injected app-crash fault: a deterministically chosen
// cached app dies (the SIGSEGV analogue), exercising cold-relaunch paths.
func (s *System) crashKill(r *xrand.Rand) {
	var cands []*Proc
	for _, p := range s.procs {
		if p.alive && p.state == StateBackground {
			cands = append(cands, p)
		}
	}
	if len(cands) == 0 {
		return
	}
	victim := cands[r.Intn(len(cands))]
	s.M.CrashKills++
	s.Trace.Emit(trace.Event{At: s.Clock.Now(), Kind: trace.KindKill, App: victim.Name(), Detail: "crash"})
	s.Kill(victim)
}

// psiTick is the pressure-stall monitor of lmkd: a sustained rate of
// GC-induced swap-in stall (collectors faulting back pages the reclaimer
// just evicted — the thrashing loop of §3.2) plus a nearly full swap
// device means memory pressure is unproductive — kill the LRU cached app.
// This is Fig. 11's capacity limiter for stock Android, whose background
// GCs refault the swapped heap every cycle; policies whose collectors do
// not touch swapped pages stay below it.
func (s *System) psiTick(c *simclock.Clock) {
	now := c.Now()
	ioFrac, ok := s.stall.observe(now, s.gcFaultCum)
	if ok && now-s.lastPSIKill >= s.Cfg.PSICooldown {
		swapFull := s.VM.Swap.TotalSlots() == 0 ||
			float64(s.VM.Swap.UsedSlots()) > 0.7*float64(s.VM.Swap.TotalSlots())
		if ioFrac > s.Cfg.PSIKillThreshold && swapFull {
			if s.onPressure(0) {
				s.M.PSIKills++
				s.lastPSIKill = now
			}
		}
	}
	c.ScheduleAfter(time.Second, "psi", s.psiTick)
}

// EnableTrace attaches an event log (max 0 = unlimited) and returns it.
func (s *System) EnableTrace(max int) *trace.Log {
	s.Trace = trace.New(max)
	return s.Trace
}

// Procs returns all processes ever launched (including dead ones).
func (s *System) Procs() []*Proc { return s.procs }

// Foreground returns the current foreground process (nil at boot).
func (s *System) Foreground() *Proc { return s.fg }

// AliveCount returns how many app processes exist right now.
func (s *System) AliveCount() int {
	n := 0
	for _, p := range s.procs {
		if p.alive {
			n++
		}
	}
	return n
}

// FindProc returns the newest process for the named app (alive or dead),
// or nil.
func (s *System) FindProc(name string) *Proc {
	for i := len(s.procs) - 1; i >= 0; i-- {
		if s.procs[i].App.Name == name {
			return s.procs[i]
		}
	}
	return nil
}

// onPressure is lmkd: kill the least-recently-foregrounded cached app.
// Hard (reclaim-failure) invocations arrive with need > 0 and are counted
// separately from PSI kills.
func (s *System) onPressure(need int64) bool {
	var victim *Proc
	for _, p := range s.procs {
		if p.alive && p.state == StateBackground {
			if victim == nil || p.lastFg < victim.lastFg {
				victim = p
			}
		}
	}
	if victim == nil {
		return false
	}
	if need > 0 {
		s.M.HardKills++
		s.Trace.Emit(trace.Event{At: s.Clock.Now(), Kind: trace.KindKill, App: victim.Name(), Detail: "hard"})
	}
	s.Kill(victim)
	return true
}

// Kill terminates a process, releasing all its memory.
func (s *System) Kill(p *Proc) {
	if !p.alive {
		return
	}
	p.alive = false
	p.state = StateDead
	p.bgSeq++
	p.App.ReleaseAll()
	s.M.Kills++
	if s.fg == p {
		s.fg = nil
	}
}

// Launch cold-starts an app and brings it to the foreground. The previous
// foreground app is cached.
func (s *System) Launch(profile apps.Profile) *Proc {
	now := s.Clock.Now()
	if s.fg != nil {
		s.toBackground(s.fg)
	}
	app := apps.NewApp(profile, s.rng.Fork(uint64(len(s.procs))+7), s.VM)
	p := &Proc{sys: s, App: app, alive: true, state: StateForeground}
	p.Ctrl = gc.NewController(s.Cfg.FgHeapGrowth)
	p.Ctrl.MinHeadroom = s.Cfg.MinHeadroomBytes()
	p.wirePolicy()
	s.procs = append(s.procs, p)

	stall, lerr := app.BuildInitial(now)
	// Settle the fresh heap with one collection, as a real cold start's
	// early GCs would.
	res := p.foregroundGC(s.Clock.Now())
	if lerr == nil {
		lerr = res.Err
	}
	t := profile.ColdLaunchCPU + stall + res.PauseSTW
	s.Clock.Advance(profile.ColdLaunchCPU + stall)
	s.M.Launches = append(s.M.Launches, LaunchRecord{App: profile.Name, Hot: false, Time: t, At: now})
	s.Trace.Emit(trace.Event{At: now, Kind: trace.KindLaunch, App: profile.Name, Detail: "cold", Dur: t})
	if lerr != nil {
		s.oomKill(p, lerr)
	} else {
		s.makeForeground(p)
	}
	s.noteAlive()
	return p
}

// SwitchTo hot-launches a cached app (or cold-launches it again if lmkd
// killed it). Returns the launch time.
func (s *System) SwitchTo(p *Proc) (time.Duration, *Proc) {
	if !p.alive {
		np := s.Launch(p.App.Profile)
		return s.M.Launches[len(s.M.Launches)-1].Time, np
	}
	if s.fg == p {
		return 0, p
	}
	now := s.Clock.Now()
	if s.fg != nil {
		s.toBackground(s.fg)
	}

	// An ASAP-style prefetcher reads the app's predicted launch set back
	// in bulk before the launch touches anything: the Java heap (where
	// launch objects scatter) plus the launch-critical head of the native
	// segment. The sequential IO is part of the perceived launch time.
	var prefetchIO time.Duration
	var lerr error
	if s.Cfg.LaunchPrefetch {
		_, io, perr := s.VM.Prefetch(p.App.H.AS, 0, p.App.H.AddressSpanBytes())
		head := int64(float64(p.App.Profile.NativeBytes()) * p.App.Profile.LaunchNativeFrac)
		_, io2, perr2 := s.VM.Prefetch(p.App.NativeAS, 0, head)
		prefetchIO = io + io2
		lerr = firstErr(perr, perr2)
	}

	// Hot launch: re-access the launch working set (faulting whatever the
	// swap policy let slip out), run the launch allocation burst, and pay
	// for any GC the burst triggers — it runs concurrently but competes
	// for the swap device and stops the world (§4.2).
	hstall, herr := p.App.HotLaunchAccess(now)
	stall := prefetchIO + hstall
	bstall, berr := p.App.LaunchAllocBurst(now)
	stall += bstall
	lerr = firstErr(lerr, herr, berr)
	var gcTime time.Duration
	if res, ran := p.maybeThresholdGC(now, true); ran {
		gcTime = res.PauseSTW + res.GCFaultStall
		lerr = firstErr(lerr, res.Err)
	}
	t := p.App.HotLaunchCPU + stall + gcTime
	s.Clock.Advance(p.App.HotLaunchCPU + stall)
	s.M.Launches = append(s.M.Launches, LaunchRecord{App: p.App.Name, Hot: true, Time: t, At: now})
	s.Trace.Emit(trace.Event{At: now, Kind: trace.KindLaunch, App: p.App.Name, Detail: "hot", Dur: t})
	if lerr != nil {
		s.oomKill(p, lerr)
	} else {
		s.makeForeground(p)
	}
	s.noteAlive()
	return t, p
}

// firstErr returns the first non-nil error of errs.
func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

func (s *System) noteAlive() {
	n := s.AliveCount()
	if n > s.M.AliveHighWater {
		s.M.AliveHighWater = n
	}
	s.M.AliveTrace = append(s.M.AliveTrace, n)
}

// makeForeground installs p as the foreground app and starts its ticks.
func (s *System) makeForeground(p *Proc) {
	s.fg = p
	p.state = StateForeground
	p.lastFg = s.Clock.Now()
	p.bgSeq++
	s.Trace.Emit(trace.Event{At: s.Clock.Now(), Kind: trace.KindState, App: p.Name(), Detail: "foreground"})
	p.Ctrl.GrowthFactor = s.Cfg.FgHeapGrowth
	p.Ctrl.Update(p.App.H.LiveBytes())
	if p.Fleet != nil {
		p.Fleet.OnForeground()
		fgAt := p.lastFg
		s.Clock.ScheduleAfter(s.Cfg.Fleet.ForegroundWait, p.Name()+"-fleet-stop", func(c *simclock.Clock) {
			if p.alive && p.state == StateForeground && p.lastFg == fgAt {
				p.Fleet.Stop()
			}
		})
	}
	s.Clock.ScheduleAfter(s.Cfg.FgTick, p.Name()+"-fg", p.fgTickEvent)
}

// toBackground caches the app and starts its background machinery.
func (s *System) toBackground(p *Proc) {
	if !p.alive {
		return
	}
	now := s.Clock.Now()
	p.state = StateBackground
	p.bgSeq++
	seq := p.bgSeq
	s.Trace.Emit(trace.Event{At: now, Kind: trace.KindState, App: p.Name(), Detail: "background"})
	p.App.EnterBackground(now)
	p.Ctrl.GrowthFactor = s.Cfg.BgHeapGrowth
	p.Ctrl.Update(p.App.H.LiveBytes())
	p.lastFullGC = now
	if s.fg == p {
		s.fg = nil
	}

	s.Clock.ScheduleAfter(s.Cfg.BgTick, p.Name()+"-bg", func(c *simclock.Clock) {
		p.bgTickEvent(c, seq)
	})

	switch {
	case p.Fleet != nil:
		p.Fleet.OnBackground()
		s.Clock.ScheduleAfter(s.Cfg.Fleet.BackgroundWait, p.Name()+"-fleet-group", func(c *simclock.Clock) {
			if !p.alive || p.state != StateBackground || p.bgSeq != seq {
				return
			}
			res := p.Fleet.RunGrouping(c.Now())
			p.finishGC(c.Now(), res, true)
			if res.Err != nil {
				s.oomKill(p, res.Err)
				return
			}
			// Periodic HOT_RUNTIME refresh while cached.
			var refresh func(c *simclock.Clock)
			refresh = func(c *simclock.Clock) {
				if !p.alive || p.state != StateBackground || p.bgSeq != seq {
					return
				}
				p.Fleet.RefreshAdvice()
				c.ScheduleAfter(s.Cfg.Fleet.AdvisePeriod, p.Name()+"-fleet-advise", refresh)
			}
			c.ScheduleAfter(s.Cfg.Fleet.AdvisePeriod, p.Name()+"-fleet-advise", refresh)
		})
	case p.Marvin != nil:
		// Marvin's proactive object reclaim shortly after caching.
		s.Clock.ScheduleAfter(10*time.Second, p.Name()+"-marvin-reclaim", func(c *simclock.Clock) {
			if !p.alive || p.state != StateBackground || p.bgSeq != seq {
				return
			}
			res := p.backgroundGC(c.Now())
			p.lastFullGC = c.Now()
			if res.Err != nil {
				s.oomKill(p, res.Err)
			}
		})
	}
}

// fgTickEvent advances one foreground workload step.
func (p *Proc) fgTickEvent(c *simclock.Clock) {
	s := p.sys
	if !p.alive || p.state != StateForeground || s.fg != p {
		return
	}
	now := c.Now()
	stall, err := p.App.ForegroundTick(now, s.Cfg.FgTick)
	var pause time.Duration
	if res, ran := p.maybeThresholdGC(now, false); ran {
		pause = res.PauseSTW
		err = firstErr(err, res.Err)
	}
	p.accountFrames(s.Cfg.FgTick, stall+pause)
	if err != nil {
		s.oomKill(p, err)
		return
	}
	s.Clock.ScheduleAfter(s.Cfg.FgTick, p.Name()+"-fg", p.fgTickEvent)
}

// accountFrames applies the §7.3 frame model: the tick renders
// tick/16.7 ms frames; mutator delay (fault stalls + GC pauses) janks
// frames at one jank per exceeded frame budget.
func (p *Proc) accountFrames(tick, delay time.Duration) {
	f := p.sys.M.frames(p.App.Name)
	frames := int64(tick / FrameBudget)
	if frames < 1 {
		frames = 1
	}
	// A frame janks when the tick's accumulated delay pushes it past the
	// deadline; sub-headroom delays (minor faults) are absorbed.
	headroom := FrameBudget - baseRenderCPU
	janks := int64(delay / headroom)
	if janks > frames {
		janks = frames
	}
	f.Frames += frames
	f.Janks += janks
	// Frames are paced at the vsync budget; mutator delay stretches the
	// interval, dragging FPS below 60.
	f.Busy += time.Duration(frames)*FrameBudget + delay
	cpu := p.sys.M.cpu(p.App.Name)
	cpu.Mutator += time.Duration(frames) * baseRenderCPU
}

// bgTickEvent advances one cached-state workload step.
func (p *Proc) bgTickEvent(c *simclock.Clock, seq int) {
	s := p.sys
	if !p.alive || p.state != StateBackground || p.bgSeq != seq {
		return
	}
	now := c.Now()
	_, err := p.App.BackgroundTick(now, s.Cfg.BgTick)
	s.M.cpu(p.App.Name).Mutator += s.Cfg.BgTick / 100

	if res, ran := p.maybeThresholdGC(now, true); ran {
		p.lastFullGC = now
		err = firstErr(err, res.Err)
	} else if now-p.lastFullGC >= s.Cfg.BgGCPeriod {
		res := p.backgroundGC(now)
		p.lastFullGC = now
		err = firstErr(err, res.Err)
	}
	if err != nil {
		s.oomKill(p, err)
		return
	}
	s.Clock.ScheduleAfter(s.Cfg.BgTick, p.Name()+"-bg", func(c *simclock.Clock) {
		p.bgTickEvent(c, seq)
	})
}

// Use runs the simulation forward by d (the foreground app is used, cached
// apps tick in the background).
func (s *System) Use(d time.Duration) {
	s.Clock.RunUntil(s.Clock.Now() + d)
}

// Idle models screen-off time: the foreground app (if any) is cached like
// any other and the simulation runs forward with no foreground workload.
// Background GC, Fleet grouping/advice and reclaim all proceed, so the
// next SwitchTo is a true hot launch out of the cached state they left
// behind.
func (s *System) Idle(d time.Duration) {
	if s.fg != nil {
		s.toBackground(s.fg)
	}
	s.Clock.RunUntil(s.Clock.Now() + d)
}

// Debug summarises system state.
func (s *System) Debug() string {
	return fmt.Sprintf("t=%v alive=%d freeFrames=%d swapFree=%d kills=%d",
		s.Clock.Now(), s.AliveCount(), s.VM.Phys.FreeFrames(), s.VM.Swap.FreeSlots(), s.M.Kills)
}
