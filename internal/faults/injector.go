package faults

import (
	"time"

	"fleetsim/internal/mem"
	"fleetsim/internal/simclock"
	"fleetsim/internal/vmem"
	"fleetsim/internal/xrand"
)

// Stats counts injected fault events.
type Stats struct {
	StallWindows   int64
	OfflineWindows int64
	Squeezes       int64
	Storms         int64
	Crashes        int64
	CompSpikes     int64
	ZramFulls      int64
	// StormFaults counts storm touches that themselves hit an error
	// (ErrOOM while applying pressure). The storm absorbs it — it is
	// background noise, not an app — but the count is reported.
	StormFaults int64
}

// Injector replays a Profile's fault schedule on the simulation clock. It
// owns a private RNG, so the schedule depends only on (profile, seed) and
// never perturbs the workload's random streams.
type Injector struct {
	// OnAppCrash, when set, receives each app-crash event together with
	// the injector's RNG so the receiver can pick a victim
	// deterministically.
	OnAppCrash func(*xrand.Rand)

	prof  Profile
	clock *simclock.Clock
	vm    *vmem.Manager
	rng   *xrand.Rand

	// Window state served to the manager via its swap-fault hook.
	stallUntil    time.Duration
	stallFactor   float64
	offlineUntil  time.Duration
	cpuSpikeUntil time.Duration
	cpuFactor     float64

	stormAS    *mem.AddressSpace
	stormSlots []stormSlot

	stats Stats
}

// stormSlot is one reusable storm address range (page tables are never
// shrunk, so released ranges are recycled instead of leaking).
type stormSlot struct {
	base  int64
	inUse bool
}

// NewInjector installs the injector as the manager's swap-fault hook. Call
// Start to schedule the first events.
func NewInjector(p Profile, seed uint64, clock *simclock.Clock, vm *vmem.Manager) *Injector {
	inj := &Injector{prof: p, clock: clock, vm: vm, rng: xrand.New(seed)}
	vm.Faults = inj.swapState
	return inj
}

// Stats returns the event counters so far.
func (inj *Injector) Stats() Stats { return inj.stats }

// Profile returns the active profile.
func (inj *Injector) Profile() Profile { return inj.prof }

// Spaces returns the injector-owned address spaces, so the invariant
// checker's global frame/slot accounting can include storm memory.
func (inj *Injector) Spaces() []*mem.AddressSpace {
	if inj.stormAS == nil {
		return nil
	}
	return []*mem.AddressSpace{inj.stormAS}
}

// swapState is the manager's swap-fault hook: it renders the open windows
// as the device's current fault state.
func (inj *Injector) swapState() vmem.FaultState {
	now := inj.clock.Now()
	var st vmem.FaultState
	if now < inj.stallUntil {
		st.LatencyFactor = inj.stallFactor
	}
	if now < inj.offlineUntil {
		st.OfflineFor = inj.offlineUntil - now
	}
	if now < inj.cpuSpikeUntil {
		st.CPUFactor = inj.cpuFactor
	}
	return st
}

// expAfter samples the next inter-arrival delay of a stream with the given
// mean, floored so events never pile onto the same instant.
func (inj *Injector) expAfter(mean time.Duration) time.Duration {
	d := time.Duration(inj.rng.Exp(float64(mean)))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// Start schedules the first event of every enabled fault stream.
func (inj *Injector) Start() {
	p := inj.prof
	if p.StallMTBF > 0 && p.StallDuration > 0 && p.StallFactor > 1 {
		inj.clock.ScheduleAfter(inj.expAfter(p.StallMTBF), "fault-stall", inj.stallEvent)
	}
	if p.OfflineMTBF > 0 && p.OfflineDuration > 0 {
		inj.clock.ScheduleAfter(inj.expAfter(p.OfflineMTBF), "fault-offline", inj.offlineEvent)
	}
	if p.SqueezeMTBF > 0 && p.SqueezeDuration > 0 && p.SqueezeFrac > 0 {
		inj.clock.ScheduleAfter(inj.expAfter(p.SqueezeMTBF), "fault-squeeze", inj.squeezeEvent)
	}
	if p.StormMTBF > 0 && p.StormBytes > 0 && p.StormHold > 0 {
		inj.clock.ScheduleAfter(inj.expAfter(p.StormMTBF), "fault-storm", inj.stormEvent)
	}
	if p.CrashMTBF > 0 {
		inj.clock.ScheduleAfter(inj.expAfter(p.CrashMTBF), "fault-crash", inj.crashEvent)
	}
	if p.CompSpikeMTBF > 0 && p.CompSpikeDuration > 0 && p.CompSpikeFactor > 1 {
		inj.clock.ScheduleAfter(inj.expAfter(p.CompSpikeMTBF), "fault-compspike", inj.compSpikeEvent)
	}
	if p.ZramFullMTBF > 0 && p.ZramFullDuration > 0 {
		inj.clock.ScheduleAfter(inj.expAfter(p.ZramFullMTBF), "fault-zramfull", inj.zramFullEvent)
	}
}

func (inj *Injector) stallEvent(c *simclock.Clock) {
	inj.stats.StallWindows++
	inj.stallFactor = inj.prof.StallFactor
	inj.stallUntil = c.Now() + inj.prof.StallDuration
	// The next window opens only after this one closes.
	c.ScheduleAfter(inj.prof.StallDuration+inj.expAfter(inj.prof.StallMTBF), "fault-stall", inj.stallEvent)
}

func (inj *Injector) offlineEvent(c *simclock.Clock) {
	inj.stats.OfflineWindows++
	inj.offlineUntil = c.Now() + inj.prof.OfflineDuration
	c.ScheduleAfter(inj.prof.OfflineDuration+inj.expAfter(inj.prof.OfflineMTBF), "fault-offline", inj.offlineEvent)
}

func (inj *Injector) squeezeEvent(c *simclock.Clock) {
	inj.stats.Squeezes++
	got := inj.vm.Swap.ReserveSlots(int64(inj.prof.SqueezeFrac * float64(inj.vm.Swap.TotalSlots())))
	c.ScheduleAfter(inj.prof.SqueezeDuration, "fault-squeeze-end", func(c *simclock.Clock) {
		inj.vm.Swap.UnreserveSlots(got)
	})
	c.ScheduleAfter(inj.prof.SqueezeDuration+inj.expAfter(inj.prof.SqueezeMTBF), "fault-squeeze", inj.squeezeEvent)
}

func (inj *Injector) stormEvent(c *simclock.Clock) {
	inj.stats.Storms++
	if inj.stormAS == nil {
		inj.stormAS = mem.NewAddressSpace("fault-storm")
	}
	slot := -1
	for i := range inj.stormSlots {
		if !inj.stormSlots[i].inUse {
			slot = i
			break
		}
	}
	if slot < 0 {
		inj.stormSlots = append(inj.stormSlots, stormSlot{base: inj.stormAS.Reserve(inj.prof.StormBytes)})
		slot = len(inj.stormSlots) - 1
	}
	inj.stormSlots[slot].inUse = true
	base := inj.stormSlots[slot].base
	if _, err := inj.vm.TouchRange(inj.stormAS, base, inj.prof.StormBytes, true); err != nil {
		inj.stats.StormFaults++
	}
	c.ScheduleAfter(inj.prof.StormHold, "fault-storm-end", func(c *simclock.Clock) {
		inj.vm.ReleaseRange(inj.stormAS, base, inj.prof.StormBytes)
		for i := range inj.stormSlots {
			if inj.stormSlots[i].base == base {
				inj.stormSlots[i].inUse = false
			}
		}
	})
	c.ScheduleAfter(inj.prof.StormHold+inj.expAfter(inj.prof.StormMTBF), "fault-storm", inj.stormEvent)
}

// compSpikeEvent opens a compression-CPU throttling window. Flash
// transfers ignore CPUFactor, so this stream only bites on compressed
// backends.
func (inj *Injector) compSpikeEvent(c *simclock.Clock) {
	inj.stats.CompSpikes++
	inj.cpuFactor = inj.prof.CompSpikeFactor
	inj.cpuSpikeUntil = c.Now() + inj.prof.CompSpikeDuration
	c.ScheduleAfter(inj.prof.CompSpikeDuration+inj.expAfter(inj.prof.CompSpikeMTBF), "fault-compspike", inj.compSpikeEvent)
}

// zramFullEvent reserves every free page-slot for the window, modeling
// another subsystem flooding the compressed pool; swap-outs fail with
// ErrSwapFull until the hold releases.
func (inj *Injector) zramFullEvent(c *simclock.Clock) {
	inj.stats.ZramFulls++
	got := inj.vm.Swap.ReserveSlots(inj.vm.Swap.FreeSlots())
	c.ScheduleAfter(inj.prof.ZramFullDuration, "fault-zramfull-end", func(c *simclock.Clock) {
		inj.vm.Swap.UnreserveSlots(got)
	})
	c.ScheduleAfter(inj.prof.ZramFullDuration+inj.expAfter(inj.prof.ZramFullMTBF), "fault-zramfull", inj.zramFullEvent)
}

func (inj *Injector) crashEvent(c *simclock.Clock) {
	inj.stats.Crashes++
	if inj.OnAppCrash != nil {
		inj.OnAppCrash(inj.rng)
	}
	c.ScheduleAfter(inj.expAfter(inj.prof.CrashMTBF), "fault-crash", inj.crashEvent)
}
