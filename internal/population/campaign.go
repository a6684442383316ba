// The campaign engine: devices shard into fixed ranges, each shard
// simulates its slice under every policy and reduces it into one
// aggregate of sketches and counters, and the coordinator merges shards.
// Because the reduction is exactly associative and commutative
// (internal/metrics), the merged fleet aggregate — and hence the campaign
// digest — is bitwise identical whether shards ran serially, on a worker
// pool, or half-resumed out of a checkpoint journal.
package population

import (
	"encoding/json"
	"fmt"
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/apps"
	"fleetsim/internal/metrics"
	"fleetsim/internal/runner"
	"fleetsim/internal/snapshot"
)

// TierAgg is the mergeable reduction of every device simulated under one
// policy×tier cell: percentile sketches for hot/cold-launch latency and
// GC pause (milliseconds), and counters for launches, swap traffic and
// lmkd kills.
type TierAgg struct {
	Devices int64           `json:"devices"`
	Hot     *metrics.Sketch `json:"hot"`
	Cold    *metrics.Sketch `json:"cold"`
	GCPause *metrics.Sketch `json:"gc_pause"`
	Counts  metrics.Counts  `json:"counts"`
}

func newTierAgg() *TierAgg {
	return &TierAgg{
		Hot:     metrics.NewSketch(),
		Cold:    metrics.NewSketch(),
		GCPause: metrics.NewSketch(),
		Counts:  metrics.Counts{},
	}
}

// merge folds o into t (integer adds and sketch merges only — exactly
// order-invariant).
func (t *TierAgg) merge(o *TierAgg) {
	t.Devices += o.Devices
	t.Hot.Merge(o.Hot)
	t.Cold.Merge(o.Cold)
	t.GCPause.Merge(o.GCPause)
	t.Counts.Merge(o.Counts)
}

// Agg is one shard's (or the merged fleet's) aggregate, keyed
// "Policy|tier". encoding/json sorts map keys, so the serialization is
// canonical: equal aggregates marshal to equal bytes.
type Agg struct {
	Cells map[string]*TierAgg `json:"cells"`
}

// NewAgg returns an empty aggregate.
func NewAgg() *Agg { return &Agg{Cells: map[string]*TierAgg{}} }

func cellKey(policy, tier string) string { return policy + "|" + tier }

func (a *Agg) cell(policy, tier string) *TierAgg {
	k := cellKey(policy, tier)
	c, ok := a.Cells[k]
	if !ok {
		c = newTierAgg()
		a.Cells[k] = c
	}
	return c
}

// Merge folds o into a and returns the number of cell merges performed.
func (a *Agg) Merge(o *Agg) int64 {
	var n int64
	for _, k := range sortedKeys(o.Cells) {
		c, ok := a.Cells[k]
		if !ok {
			c = newTierAgg()
			a.Cells[k] = c
		}
		c.merge(o.Cells[k])
		n++
	}
	return n
}

// baseline marks where a device's warmup phase ended, so observe reduces
// only the measured session phase — the §7.2 protocol measures an
// established population, not the install storm that builds it.
type baseline struct {
	launches, gcs         int
	swapIns, swapOuts     int64
	hard, psi, oom, crash int
}

func snapshotBaseline(sys *android.System) baseline {
	st := sys.VM.Stats()
	return baseline{
		launches: len(sys.M.Launches), gcs: len(sys.M.GCs),
		swapIns: st.SwapIns, swapOuts: st.SwapOuts,
		hard: sys.M.HardKills, psi: sys.M.PSIKills,
		oom: sys.M.OOMKills, crash: sys.M.CrashKills,
	}
}

// observe reduces one finished device simulation (past its baseline) into
// the aggregate; nothing else is retained — only bucket counts and
// counters survive, so campaign memory is bounded by policies×tiers, not
// devices.
func (a *Agg) observe(policy, tier string, sys *android.System, base baseline) {
	c := a.cell(policy, tier)
	c.Devices++
	const ms = float64(time.Millisecond)
	for _, l := range sys.M.Launches[base.launches:] {
		if l.Hot {
			c.Hot.Observe(float64(l.Time) / ms)
			c.Counts.Add("launch_hot", 1)
		} else {
			c.Cold.Observe(float64(l.Time) / ms)
			c.Counts.Add("launch_cold", 1)
		}
	}
	for _, g := range sys.M.GCs[base.gcs:] {
		c.GCPause.Observe(float64(g.Pause) / ms)
	}
	st := sys.VM.Stats()
	c.Counts.Add("swap_in", st.SwapIns-base.swapIns)
	c.Counts.Add("swap_out", st.SwapOuts-base.swapOuts)
	c.Counts.Add("kill_hard", int64(sys.M.HardKills-base.hard))
	c.Counts.Add("kill_psi", int64(sys.M.PSIKills-base.psi))
	c.Counts.Add("kill_oom", int64(sys.M.OOMKills-base.oom))
	c.Counts.Add("kill_crash", int64(sys.M.CrashKills-base.crash))
}

// Digest returns the FNV-64a digest of the aggregate's canonical JSON —
// the campaign's bitwise-determinism witness.
func (a *Agg) Digest() string {
	data, err := json.Marshal(a)
	if err != nil {
		// Agg marshals sketches and int maps; failure is a programming
		// error, not an input condition.
		panic(fmt.Sprintf("population: agg marshal: %v", err))
	}
	h := snapshot.NewHasher()
	h.Str(string(data))
	return fmt.Sprintf("%016x", uint64(h.Sum()))
}

// SimulateDevice expands fleet member i and runs it under every policy of
// the spec, reducing the outcome into agg. catalog is
// apps.CommercialProfiles(spec.Scale); the device's installed profiles
// are copied with the tier's CPU factor applied to launch CPU costs.
func (s Spec) SimulateDevice(i int, catalog []apps.Profile, agg *Agg) {
	dev := s.ExpandDevice(i, len(catalog))
	tier := s.Tiers[dev.Tier]
	profs := make([]apps.Profile, len(dev.Apps))
	for k, ai := range dev.Apps {
		pr := catalog[ai]
		pr.HotLaunchCPU = time.Duration(float64(pr.HotLaunchCPU) * tier.CPUFactor)
		pr.ColdLaunchCPU = time.Duration(float64(pr.ColdLaunchCPU) * tier.CPUFactor)
		profs[k] = pr
	}
	for _, pol := range s.Policies {
		cfg := android.DefaultSystemConfig(pol, s.Scale)
		cfg.Device = TierDevice(tier, s.Scale)
		cfg.Seed = dev.Seed // identical across policies: paired comparison
		sys := android.NewSystem(cfg)
		for _, pr := range profs {
			sys.Launch(pr)
			sys.Use(250 * time.Millisecond)
		}
		// Warmup: idle past a full background-GC period so every policy
		// reaches its cached steady state (threshold GCs settle, Marvin's
		// proactive reclaim and Fleet's grouping+advice have run) before
		// anything is measured.
		sys.Idle(cfg.BgGCPeriod + 15*time.Second)
		base := snapshotBaseline(sys)
		for _, ses := range dev.Plan {
			// A session brings its app forward — a hot launch out of the
			// cached state the previous gap left it in, or a recorded cold
			// relaunch if lmkd killed it — uses it, then the screen goes
			// off and the whole device sits cached through the gap.
			if p := sys.FindProc(profs[ses.App].Name); p != nil {
				sys.SwitchTo(p)
			} else {
				sys.Launch(profs[ses.App])
			}
			sys.Use(ses.Fg)
			if ses.Gap > 0 {
				sys.Idle(ses.Gap)
			}
		}
		agg.observe(pol.String(), tier.Name, sys, base)
	}
}

// Result is a finished (or interrupted) campaign.
type Result struct {
	Spec Spec
	// Agg is the fleet-merged aggregate over every completed shard.
	Agg *Agg
	// Shards is the total shard count; ResumedShards came from the
	// checkpoint store, SkippedShards were not run (interrupt), and the
	// rest ran fresh.
	Shards        int
	ResumedShards int
	SkippedShards int
	// Devices is the number of device simulations reflected in Agg
	// (resumed shards included), summed over policies in the cells.
	Devices int64
	// Merges counts shard-aggregate merges performed at the coordinator.
	Merges int64
	// Errors lists failed shard legs (panic, timeout, refused
	// checkpoint). A campaign with errors is incomplete.
	Errors []string
}

// Complete reports whether every shard's devices are in the aggregate.
func (r *Result) Complete() bool {
	return r.SkippedShards == 0 && len(r.Errors) == 0
}

// Digest is the campaign digest (of the merged aggregate).
func (r *Result) Digest() string { return r.Agg.Digest() }

// Run executes the campaign: shards fan out on the process worker pool
// as cells of c (runner.Cells), each shard simulates its device range and
// reduces it to one aggregate, and the coordinator merges shard
// aggregates in shard order. With a journal, each completed shard's
// aggregate is recorded (the journal commits exactly at device-range
// boundaries) and already-completed shards are answered on resume; cell
// keys fold the spec digest, so a shared journal never mixes campaigns.
// The interrupt is polled at shard boundaries: in-flight shards finish
// and checkpoint, the rest are counted in SkippedShards. The result is
// bitwise identical at every parallelism level and across
// checkpoint/resume.
func Run(spec Spec, c runner.Campaign) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	catalog := apps.CommercialProfiles(spec.Scale)
	specDigest := func() string {
		h := snapshot.NewHasher()
		h.Str(spec.Key())
		return fmt.Sprintf("%016x", uint64(h.Sum()))
	}()

	type shard struct{ lo, hi int }
	var shards []shard
	var keys []string
	for lo := 0; lo < spec.Devices; lo += spec.ShardSize {
		hi := lo + spec.ShardSize
		if hi > spec.Devices {
			hi = spec.Devices
		}
		shards = append(shards, shard{lo, hi})
		keys = append(keys, fmt.Sprintf("population/%s/%06d-%06d", specDigest, lo, hi))
	}

	aggs, done, tally := runner.Cells(c, keys, func(i int) *Agg {
		agg := NewAgg()
		for d := shards[i].lo; d < shards[i].hi; d++ {
			spec.SimulateDevice(d, catalog, agg)
		}
		return agg
	})

	res := &Result{Spec: spec, Agg: NewAgg(), Shards: len(shards),
		ResumedShards: tally.Resumed, SkippedShards: tally.Skipped}
	for i, agg := range aggs {
		if done[i] {
			res.Merges += res.Agg.Merge(agg)
		}
	}
	for _, le := range tally.Errors {
		res.Errors = append(res.Errors, le.Error())
	}
	for _, k := range sortedKeys(res.Agg.Cells) {
		res.Devices += res.Agg.Cells[k].Devices
	}
	publishTelemetry(res)
	return res, nil
}
