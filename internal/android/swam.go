package android

import (
	"time"

	"fleetsim/internal/simclock"
)

// The SWAM-style responsiveness monitor (arXiv 2306.08345): instead of
// watermarks on free pages, reclaim and lmkd escalate off how unresponsive
// apps are *observed* to be — the fraction of wall time lost to refault
// stall (pages faulting back right after eviction) plus decompression stall
// (the CPU tax a compressed backend charges every swap-in).
//
// The kill threshold sits well above the reclaim threshold on purpose:
// every hot launch of a big app produces a legitimate refault burst, and a
// monitor that kills on those spirals (kill → cold relaunch → more
// refaults). Calibrated so the monitor reclaims early and often but kills
// only in sustained thrash.
const (
	// swamWindow is the sliding responsiveness-sampling window.
	swamWindow = 10 * time.Second
	// swamReclaimThreshold: stall fraction above which the monitor runs
	// proactive reclaim, converting future synchronous faults into
	// asynchronous background write-out while there is still headroom.
	swamReclaimThreshold = 0.05
	// swamReclaimFrac sizes one proactive pass as a fraction of app DRAM.
	swamReclaimFrac = 0.02
	// swamKillThreshold: stall fraction above which responsiveness is
	// deemed unrecoverable by reclaim alone and the LRU cached app is
	// killed.
	swamKillThreshold = 0.35
	// swamCooldown spaces kills so one bad window doesn't empty the cache.
	swamCooldown = 10 * time.Second
)

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
		case stallFrac > swamKillThreshold && now-s.lastSwamKill >= swamCooldown:
			if s.lmkdKill("swam", &s.M.SwamKills) {
				s.lastSwamKill = now
			}
		case stallFrac > swamReclaimThreshold:
			want := int64(float64(s.VM.Phys.TotalFrames) * swamReclaimFrac)
			if want < 8 {
				want = 8
			}
			s.M.SwamReclaims += s.VM.ProactiveReclaim(want)
		}
	}
	c.ScheduleAfter(time.Second, "swam", s.swamTick)
}
