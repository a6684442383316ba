package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/faults"
	"fleetsim/internal/runner"
	"fleetsim/internal/snapshot"
	"fleetsim/internal/vmem"
)

// ChaosRow summarises one (profile, seed) chaos run: the workload outcome,
// the degradation counters the fault streams tripped, and the invariant
// checker's verdict. Determinism holds when two runs of the same cell
// produce identical rows.
type ChaosRow struct {
	Profile string
	Seed    uint64

	// Backend and Policy name the matrix variant the cell ran on. The
	// historical cells are "flash"/"Fleet"; zram-relevant profiles add
	// compressed-backend and Swam-policy variants.
	Backend string
	Policy  string

	// Workload outcome.
	Launches  int
	HotMeanMS float64

	// Kill breakdown (lmkd, thrash detector, OOM escalation, crashes).
	Kills      int
	HardKills  int
	PSIKills   int
	OOMKills   int
	CrashKills int

	// Degradation-path counters from the VM layer.
	SwapRetries    int64
	SwapWriteFails int64
	OfflineWaitMS  float64
	OfflineAborts  int64
	SwapFallbacks  int

	// Injected fault events.
	Faults faults.Stats

	// Zram carries the compressed backend's counters (zero on flash);
	// folding it into the determinism key extends the bitwise replay check
	// to the compression model.
	Zram vmem.BackendStats

	// SwamKills counts responsiveness-monitor kills (Policy "Swam" only).
	SwamKills int

	// Invariant checker verdict.
	InvariantChecks int64
	Violations      []string

	// Deterministic is false when a same-seed replay diverged (only set by
	// the chaos drivers, which run every cell twice).
	Deterministic bool

	// Divergence carries the bisection result when the replay diverged:
	// the first tick whose state digest differed and the subsystem whose
	// digest differed first.
	Divergence *DivergenceInfo `json:",omitempty"`

	// Err is set (and the row otherwise zero beyond Profile/Seed) when the
	// cell's leg failed outright — panicked or exceeded its deadline.
	Err string `json:",omitempty"`
}

// DivergenceInfo is the row-embedded summary of a divergence bisection.
type DivergenceInfo struct {
	// Tick is the first digest sample that differed (1-based).
	Tick int
	// AtMS is that sample's virtual time in milliseconds.
	AtMS float64
	// Subsystem is the first differing digest in canonical order: "vmem",
	// "heap", "android" or "schedule".
	Subsystem string
	// Report is the full two-run digest report (both replays' hex digests
	// at the divergent tick), suitable for writing to a file.
	Report string `json:",omitempty"`
}

// key renders the reproducible portion of a row for bitwise comparison.
func (r ChaosRow) key() string {
	return fmt.Sprintf("%s/%s/%s/%d L%d H%.6f K%d/%d/%d/%d/%d/%d R%d W%d O%.6f A%d F%d %+v Z%+v I%d V%v",
		r.Profile, r.Backend, r.Policy, r.Seed, r.Launches, r.HotMeanMS,
		r.Kills, r.HardKills, r.PSIKills, r.OOMKills, r.CrashKills, r.SwamKills,
		r.SwapRetries, r.SwapWriteFails, r.OfflineWaitMS, r.OfflineAborts, r.SwapFallbacks,
		r.Faults, r.Zram, r.InvariantChecks, r.Violations)
}

// Clean reports whether the run finished with zero invariant violations
// (a leg that failed outright is never clean).
func (r ChaosRow) Clean() bool { return r.Err == "" && len(r.Violations) == 0 }

// chaosRun executes the full app-lifecycle workload once under a fault
// profile with the always-on invariant checker, and summarises it. When
// digestEvery > 0, a snapshot recorder samples per-tick state digests of
// every subsystem; the divergence bisector replays cells with this on.
func chaosRun(p Params, cell chaosCell, digestEvery time.Duration) (ChaosRow, []snapshot.SystemDigest) {
	prof, seed := cell.prof, cell.seed
	cfg := android.DefaultSystemConfig(cell.policy, p.Scale)
	if cell.backend == vmem.BackendZram {
		cfg.Device = android.Pixel3Zram(p.Scale)
	}
	cfg.Seed = seed
	cfg.Faults = &prof
	cfg.CheckInvariants = true

	// A bounded slice of the §7.2 pressure workload keeps each cell cheap
	// enough to run the whole suite twice (for the determinism check).
	pp := p
	pp.Seed = seed
	if pp.Rounds > 4 {
		pp.Rounds = 4
	}
	if pp.PressureApps > 10 {
		pp.PressureApps = 10
	}
	population, _ := pressurePopulation(pp, nil)

	sys := android.NewSystem(cfg)
	var rec *snapshot.Recorder
	if digestEvery > 0 {
		rec = snapshot.NewRecorder(digestEvery)
		rec.Attach(sys)
	}
	runHotLaunchesWithSystem(pp, sys, population, nil)

	// One final full sweep after the workload settles.
	sys.CheckInvariants()

	m := sys.M
	st := sys.VM.Stats()
	row := ChaosRow{
		Profile:         prof.Name,
		Seed:            seed,
		Backend:         cell.backend.String(),
		Policy:          cell.policy.String(),
		Zram:            sys.VM.Swap.BackendStats(),
		SwamKills:       m.SwamKills,
		Launches:        len(m.Launches),
		Kills:           m.Kills,
		HardKills:       m.HardKills,
		PSIKills:        m.PSIKills,
		OOMKills:        m.OOMKills,
		CrashKills:      m.CrashKills,
		SwapRetries:     st.SwapRetries,
		SwapWriteFails:  st.SwapWriteFails,
		OfflineWaitMS:   float64(st.OfflineWait) / float64(time.Millisecond),
		OfflineAborts:   st.OfflineGiveUps,
		InvariantChecks: m.InvariantChecks,
		Violations:      m.InvariantViolations,
	}
	for _, pr := range sys.Procs() {
		if pr.Fleet != nil {
			row.SwapFallbacks += pr.Fleet.SwapFallbacks()
		}
	}
	if sys.Injector != nil {
		row.Faults = sys.Injector.Stats()
	}
	var hot, hotN float64
	for _, l := range m.Launches {
		if l.Hot {
			hot += float64(l.Time) / float64(time.Millisecond)
			hotN++
		}
	}
	if hotN > 0 {
		row.HotMeanMS = hot / hotN
	}
	var digests []snapshot.SystemDigest
	if rec != nil {
		digests = rec.Digests
	}
	return row, digests
}

// ChaosOpts configures a supervised chaos campaign.
type ChaosOpts struct {
	// Seeds is the seed count per fault profile (minimum 1).
	Seeds int
	// Deadline bounds each cell's wall-clock time (0 = unbounded); a cell
	// that exceeds it is abandoned and reported, not waited on.
	Deadline time.Duration
	// Retries is the per-cell transient-failure retry budget.
	Retries int
	// Store, when non-nil, checkpoints each completed cell so an
	// interrupted campaign resumes instead of recomputing.
	Store *snapshot.Store
	// Interrupted, when non-nil, is polled before each cell; once it
	// returns true remaining cells are skipped (the SIGINT path).
	Interrupted func() bool
	// DigestEvery is the snapshot sampling period used when a divergent
	// cell is replayed for bisection (0 = 500 ms).
	DigestEvery time.Duration
}

// ChaosReport is the outcome of a supervised chaos campaign: the completed
// rows (including rows for failed legs, with Err set), the supervision
// errors, and the resume/interrupt accounting.
type ChaosReport struct {
	Rows []ChaosRow
	// Errors lists legs that panicked, timed out or otherwise failed.
	Errors []*runner.LegError
	// Skipped counts cells not run because the campaign was interrupted.
	Skipped int
	// Resumed counts cells answered from the checkpoint store.
	Resumed int
}

// Passed reports whether every executed cell was deterministic and
// violation free and nothing failed or was skipped.
func (rep ChaosReport) Passed() bool {
	return rep.Skipped == 0 && len(rep.Errors) == 0 && ChaosPassed(rep.Rows)
}

// ChaosCampaignKey canonically encodes everything that determines a chaos
// campaign's results. Checkpoints recorded under a different key are never
// resumed into this campaign. The seed count is deliberately excluded:
// adding seeds only adds cells, so a longer campaign resumes a shorter
// one's work.
func ChaosCampaignKey(p Params) string {
	return fmt.Sprintf("chaos/v2|scale=%d|rounds=%d|use=%s|apps=%d|seed=%d",
		p.Scale, p.Rounds, p.UseTime, p.PressureApps, p.Seed)
}

// errSkipped marks cells not run due to interruption; it is non-retryable
// by construction (the supervisor's Retryable filter rejects it).
var errSkipped = errors.New("chaos: cell skipped (campaign interrupted)")

type chaosCell struct {
	prof    faults.Profile
	backend vmem.BackendKind
	policy  android.PolicyKind
	seed    uint64
}

// checkpointKey names the cell in the resume store.
func (c chaosCell) checkpointKey() string {
	return fmt.Sprintf("%s/%s/%s/%d", c.prof.Name, c.backend, c.policy, c.seed)
}

// ChaosSupervised runs the fault-profile suite under full supervision:
// cells fan out on the worker pool with panic isolation and per-cell
// deadlines, every executed cell runs twice and is compared bit for bit,
// divergent cells are replayed with per-tick state digests and bisected to
// the first divergent tick and subsystem, and completed cells checkpoint
// to opts.Store so an interrupted campaign is resumable.
func ChaosSupervised(p Params, opts ChaosOpts) ChaosReport {
	if opts.Seeds < 1 {
		opts.Seeds = 1
	}
	// Every profile runs the historical flash×Fleet cell; the zram-stress
	// profile (whose fault streams only bite a compressed backend) fans out
	// across the backend/policy matrix too, so compression-CPU spikes and
	// pool exhaustion are exercised under both the Fleet runtime and the
	// SWAM responsiveness monitor.
	var cells []chaosCell
	for _, prof := range faults.Profiles(p.Scale) {
		variants := []chaosCell{{prof: prof, backend: vmem.BackendFlash, policy: android.PolicyFleet}}
		if prof.ZramFullMTBF > 0 || prof.CompSpikeMTBF > 0 {
			variants = append(variants,
				chaosCell{prof: prof, backend: vmem.BackendZram, policy: android.PolicyFleet},
				chaosCell{prof: prof, backend: vmem.BackendZram, policy: android.PolicySwam})
		}
		for _, v := range variants {
			for s := 0; s < opts.Seeds; s++ {
				v.seed = p.Seed + uint64(s)
				cells = append(cells, v)
			}
		}
	}

	var resumed atomic.Int64
	pol := runner.Policy{
		Deadline:  opts.Deadline,
		Retries:   opts.Retries,
		Retryable: func(err error) bool { return !errors.Is(err, errSkipped) },
	}
	rows, legErrs := runner.SupervisedMap(cells, pol, func(_ int, c chaosCell) (ChaosRow, error) {
		if opts.Interrupted != nil && opts.Interrupted() {
			return ChaosRow{}, errSkipped
		}
		cellKey := c.checkpointKey()
		if opts.Store != nil {
			var cached ChaosRow
			if opts.Store.Get(cellKey, &cached) {
				resumed.Add(1)
				return cached, nil
			}
		}
		row, _ := chaosRun(p, c, 0)
		replay, _ := chaosRun(p, c, 0)
		row.Deterministic = row.key() == replay.key()
		if !row.Deterministic {
			// Same-seed divergence: rerun both cells with the per-tick
			// digest recorder and bisect to the first divergent tick.
			_, da := chaosRun(p, c, opts.DigestEvery)
			_, db := chaosRun(p, c, opts.DigestEvery)
			if d := snapshot.Bisect(da, db); d != nil {
				row.Divergence = &DivergenceInfo{
					Tick:      d.Tick,
					AtMS:      float64(d.At) / float64(time.Millisecond),
					Subsystem: d.Subsystem,
					Report:    d.Report(),
				}
			}
		}
		if opts.Store != nil {
			opts.Store.Put(cellKey, row)
		}
		return row, nil
	})

	rep := ChaosReport{Resumed: int(resumed.Load())}
	failed := make(map[int]*runner.LegError)
	skipped := make(map[int]bool)
	for _, le := range legErrs {
		if errors.Is(le.Err, errSkipped) {
			rep.Skipped++
			skipped[le.Index] = true
			continue
		}
		failed[le.Index] = le
		rep.Errors = append(rep.Errors, le)
	}
	for i, row := range rows {
		if skipped[i] {
			continue
		}
		if le, bad := failed[i]; bad {
			row = ChaosRow{Profile: cells[i].prof.Name, Seed: cells[i].seed,
				Backend: cells[i].backend.String(), Policy: cells[i].policy.String(), Err: le.Error()}
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// Chaos runs the standard fault-profile suite over the given number of
// seeds with default supervision (no deadline, no checkpointing). Every
// (profile, seed) cell is executed twice and the two summaries compared
// bit for bit; the returned rows carry both the degradation counters and
// the per-cell determinism/invariant verdicts.
func Chaos(p Params, seeds int) []ChaosRow {
	return ChaosSupervised(p, ChaosOpts{Seeds: seeds}).Rows
}

// ChaosPassed reports whether every cell was deterministic and violation
// free.
func ChaosPassed(rows []ChaosRow) bool {
	for _, r := range rows {
		if !r.Clean() || (r.Err == "" && !r.Deterministic) {
			return false
		}
	}
	return true
}

// FormatChaos renders the chaos table plus a PASS/FAIL verdict line.
func FormatChaos(rows []ChaosRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %5s %8s %9s %6s %5s %6s %7s %8s %9s %6s %7s %7s %6s\n",
		"profile", "seed", "launches", "hot(ms)", "kills", "oom", "crash",
		"retries", "wrfails", "offln(ms)", "aborts", "fallbk", "checks", "ok")
	for _, r := range rows {
		label := r.Profile
		if r.Backend != "" && (r.Backend != "flash" || r.Policy != "Fleet") {
			label = fmt.Sprintf("%s+%s/%s", r.Profile, r.Backend, r.Policy)
		}
		if r.Err != "" {
			fmt.Fprintf(&b, "%-14s %5d FAILED: %s\n", label, r.Seed, r.Err)
			continue
		}
		verdict := "yes"
		if !r.Clean() {
			verdict = "VIOLATION"
		} else if !r.Deterministic {
			verdict = "DIVERGED"
		}
		fmt.Fprintf(&b, "%-14s %5d %8d %9.2f %6d %5d %6d %7d %8d %9.2f %6d %7d %7d %6s\n",
			label, r.Seed, r.Launches, r.HotMeanMS,
			r.Kills, r.OOMKills, r.CrashKills,
			r.SwapRetries, r.SwapWriteFails, r.OfflineWaitMS,
			r.OfflineAborts, r.SwapFallbacks, r.InvariantChecks, verdict)
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "    ! %s\n", v)
		}
		if d := r.Divergence; d != nil {
			fmt.Fprintf(&b, "    ~ bisected: first divergent tick %d (t=%.0fms), %s digest differed first\n",
				d.Tick, d.AtMS, d.Subsystem)
		}
	}
	if ChaosPassed(rows) {
		fmt.Fprintf(&b, "PASS: %d cells, all deterministic, zero invariant violations\n", len(rows))
	} else {
		fmt.Fprintf(&b, "FAIL: invariant violations, nondeterminism or failed cells detected\n")
	}
	return b.String()
}

// FormatChaosReport renders the full campaign outcome: the row table plus
// supervision errors (with stacks), and the resume/interrupt accounting.
func FormatChaosReport(rep ChaosReport) string {
	var b strings.Builder
	b.WriteString(FormatChaos(rep.Rows))
	if rep.Resumed > 0 {
		fmt.Fprintf(&b, "resumed %d cell(s) from checkpoint\n", rep.Resumed)
	}
	if rep.Skipped > 0 {
		fmt.Fprintf(&b, "INTERRUPTED: %d cell(s) skipped; rerun with -resume to complete\n", rep.Skipped)
	}
	for _, le := range rep.Errors {
		fmt.Fprintf(&b, "leg error: %v\n", le)
		if le.Stack != "" {
			for _, line := range strings.Split(strings.TrimRight(le.Stack, "\n"), "\n") {
				fmt.Fprintf(&b, "    %s\n", line)
			}
		}
	}
	return b.String()
}
