package android

import (
	"time"

	"fleetsim/internal/metrics"
)

// LaunchRecord is one measured launch.
type LaunchRecord struct {
	App  string
	Hot  bool
	Time time.Duration
	At   time.Duration
}

// GCRecord is one collection, tagged with the app state it ran in.
type GCRecord struct {
	App           string
	Kind          string
	Background    bool
	ObjectsTraced int64
	BytesCopied   int64
	Pause         time.Duration
	FaultStall    time.Duration
	CPU           time.Duration
	At            time.Duration
}

// FrameStats accumulates the rendering metrics of §7.3.
type FrameStats struct {
	Frames int64
	Janks  int64
	// Busy is summed frame time (render + stalls) for FPS derivation.
	Busy time.Duration
}

// JankRatio is janked frames over total frames.
func (f FrameStats) JankRatio() float64 {
	if f.Frames == 0 {
		return 0
	}
	return float64(f.Janks) / float64(f.Frames)
}

// FPS is frames divided by the busy time they took.
func (f FrameStats) FPS() float64 {
	if f.Busy <= 0 {
		return 0
	}
	return float64(f.Frames) / f.Busy.Seconds()
}

// CPUStats partitions simulated CPU time.
type CPUStats struct {
	Mutator time.Duration
	GC      time.Duration
}

// Metrics collects everything the experiments report.
type Metrics struct {
	Launches []LaunchRecord
	GCs      []GCRecord

	// Frames per app name.
	Frames map[string]*FrameStats

	// CPU per app name.
	CPU map[string]*CPUStats

	// Kills counts every process kill, by lmkd or otherwise; AliveHighWater
	// is the most apps ever cached+running simultaneously. HardKills are
	// out-of-memory kills (reclaim failed); PSIKills are thrash-detector
	// kills. OOMKills count processes whose own allocation hit ErrOOM after
	// lmkd escalation ran dry (the Android OOM-killer analogue); CrashKills
	// count processes that died on an injected crash or a non-OOM fault.
	Kills          int
	HardKills      int
	PSIKills       int
	OOMKills       int
	CrashKills     int
	AliveHighWater int

	// SwamKills counts kills by the SWAM responsiveness monitor and
	// SwamReclaims the pages its proactive reclaim passes swapped out
	// (both zero unless Policy == PolicySwam).
	SwamKills    int
	SwamReclaims int64

	// InvariantChecks counts cross-layer consistency sweeps run (when
	// SystemConfig.CheckInvariants is on); InvariantFails counts sweeps
	// that found at least one violation, with the first violations kept in
	// InvariantViolations (capped).
	InvariantChecks     int64
	InvariantFails      int64
	InvariantViolations []string

	// SwapRetries mirrors vmem.Stats.SwapRetries (offline-window backoff
	// sleeps) and OfflineReadAborts mirrors vmem.Stats.OfflineGiveUps
	// (reads abandoned after the capped wait); System.SyncVMStats copies
	// them up so chaos reports read one place.
	SwapRetries       int64
	OfflineReadAborts int64

	// AliveTrace records the alive-app count after each launch
	// (Fig. 11's y-axis).
	AliveTrace []int
}

// NewMetrics returns empty metrics.
func NewMetrics() *Metrics {
	return &Metrics{
		Frames: make(map[string]*FrameStats),
		CPU:    make(map[string]*CPUStats),
	}
}

func (m *Metrics) frames(app string) *FrameStats {
	f, ok := m.Frames[app]
	if !ok {
		f = &FrameStats{}
		m.Frames[app] = f
	}
	return f
}

func (m *Metrics) cpu(app string) *CPUStats {
	c, ok := m.CPU[app]
	if !ok {
		c = &CPUStats{}
		m.CPU[app] = c
	}
	return c
}

// BackgroundGCWorkingSet returns the objects-traced counts of background
// collections (Fig. 12a's metric), optionally filtered by app. Fleet's
// one-off grouping GC is excluded: the metric covers the recurring
// collections that run while an app stays cached.
func (m *Metrics) BackgroundGCWorkingSet(app string) *metrics.Sample {
	s := &metrics.Sample{}
	for _, g := range m.GCs {
		if g.Background && g.Kind != "grouping" && (app == "" || g.App == app) {
			s.Add(float64(g.ObjectsTraced))
		}
	}
	return s
}
