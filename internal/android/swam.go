package android

import (
	"time"

	"fleetsim/internal/simclock"
)

// SwamConfig tunes the SWAM-style responsiveness monitor (arXiv
// 2306.08345): instead of watermarks on free pages, reclaim and lmkd
// escalate off how unresponsive apps are *observed* to be — the fraction
// of wall time lost to refault stall (pages faulting back right after
// eviction) plus decompression stall (the CPU tax a compressed backend
// charges every swap-in).
type SwamConfig struct {
	// Window is the sliding responsiveness-sampling window.
	Window time.Duration
	// ReclaimThreshold: stall fraction above which the monitor runs
	// proactive reclaim, converting future synchronous faults into
	// asynchronous background write-out while there is still headroom.
	ReclaimThreshold float64
	// ReclaimFrac sizes one proactive pass as a fraction of app DRAM.
	ReclaimFrac float64
	// KillThreshold: stall fraction above which responsiveness is deemed
	// unrecoverable by reclaim alone and the LRU cached app is killed.
	KillThreshold float64
	// Cooldown spaces kills so one bad window doesn't empty the cache.
	Cooldown time.Duration
}

// DefaultSwamConfig returns the evaluation defaults. The kill threshold
// sits well above the reclaim threshold on purpose: every hot launch of a
// big app produces a legitimate refault burst, and a monitor that kills on
// those spirals (kill → cold relaunch → more refaults). Calibrated so the
// monitor reclaims early and often but kills only in sustained thrash.
func DefaultSwamConfig() SwamConfig {
	return SwamConfig{
		Window:           10 * time.Second,
		ReclaimThreshold: 0.05,
		ReclaimFrac:      0.02,
		KillThreshold:    0.35,
		Cooldown:         10 * time.Second,
	}
}

// swamStallCum is the monitor's input signal: total time apps have lost to
// refault IO plus decompression CPU. Both terms are deterministic lifetime
// counters, so the sampled deltas are too.
func (s *System) swamStallCum() time.Duration {
	return s.VM.Stats().RefaultStall + s.VM.Swap.BackendStats().DecompressCPU
}

// swamTick replaces psiTick under PolicySwam: sample the responsiveness
// signal over a sliding window and escalate — first proactive reclaim,
// then an lmkd kill — when the stall fraction crosses the thresholds. Free
// pages never enter the decision; a device thrashing with plenty of "free"
// swap still escalates, and a quiet full device is left alone.
func (s *System) swamTick(c *simclock.Clock) {
	now := c.Now()
	if stallFrac, ok := s.stall.observe(now, s.swamStallCum()); ok {
		switch {
		case stallFrac > s.Cfg.Swam.KillThreshold && now-s.lastSwamKill >= s.Cfg.Swam.Cooldown:
			if s.onPressure(0) {
				s.M.SwamKills++
				s.lastSwamKill = now
			}
		case stallFrac > s.Cfg.Swam.ReclaimThreshold:
			want := int64(float64(s.VM.Phys.TotalFrames) * s.Cfg.Swam.ReclaimFrac)
			if want < 8 {
				want = 8
			}
			s.M.SwamReclaims += s.VM.ProactiveReclaim(want)
		}
	}
	c.ScheduleAfter(time.Second, "swam", s.swamTick)
}
