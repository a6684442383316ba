package experiments

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/faults"
	"fleetsim/internal/fsio"
	"fleetsim/internal/runner"
	"fleetsim/internal/snapshot"
	"fleetsim/internal/vmem"
)

func chaosTestParams() Params {
	p := DefaultParams()
	p.Rounds = 1
	p.PressureApps = 6
	return p
}

// TestChaosResume interrupts a checkpointed campaign after one cell, then
// resumes it from the journal. The resumed campaign's rows must be bitwise
// identical to an uninterrupted run of the same campaign.
func TestChaosResume(t *testing.T) {
	p := chaosTestParams()
	dir := t.TempDir()
	path := filepath.Join(dir, "chaos.jsonl")

	// Reference: the uninterrupted campaign.
	want := ChaosSupervised(p, ChaosOpts{Seeds: 1})
	if !want.Passed() {
		t.Fatalf("reference campaign failed:\n%s", FormatChaosReport(want))
	}

	// Interrupted run: the first Interrupted poll admits one cell, the rest
	// are skipped — modeling SIGINT landing mid-campaign.
	st, err := snapshot.Open(path, ChaosCampaignKey(p))
	if err != nil {
		t.Fatal(err)
	}
	var polls atomic.Int32
	partial := ChaosSupervised(p, ChaosOpts{Seeds: 1, Campaign: runner.Campaign{
		Journal:     st,
		Interrupted: func() bool { return polls.Add(1) > 1 },
	}})
	st.Close()
	if partial.Skipped == 0 {
		t.Fatal("interrupt skipped nothing; cannot exercise resume")
	}
	if partial.Skipped+len(partial.Rows) != len(want.Rows) {
		t.Fatalf("skipped %d + ran %d != %d cells", partial.Skipped, len(partial.Rows), len(want.Rows))
	}

	// Resume: reopen the journal under the same campaign key.
	st2, err := snapshot.Open(path, ChaosCampaignKey(p))
	if err != nil {
		t.Fatal(err)
	}
	if st2.Resumed() == 0 {
		t.Fatal("journal replay found no checkpointed cells")
	}
	got := ChaosSupervised(p, ChaosOpts{Seeds: 1, Campaign: runner.Campaign{Journal: st2}})
	st2.Close()
	if got.Resumed != st2.Resumed() {
		t.Errorf("Resumed = %d, want %d (every checkpointed cell answered from the store)",
			got.Resumed, st2.Resumed())
	}
	if got.Skipped != 0 || len(got.Errors) != 0 {
		t.Fatalf("resumed campaign incomplete: %+v", got)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Errorf("resumed rows differ from uninterrupted run:\n got: %+v\nwant: %+v", got.Rows, want.Rows)
	}

	// Interrupted from the start over a journal that holds every cell: the
	// store answers each cell before the interrupt is polled, so the
	// partial table is the whole table and nothing is simulated.
	st3, err := snapshot.Open(path, ChaosCampaignKey(p))
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	again := ChaosSupervised(p, ChaosOpts{Seeds: 1, Campaign: runner.Campaign{Journal: st3, Interrupted: func() bool { return true }}})
	if again.Resumed != len(want.Rows) || again.Skipped != 0 {
		t.Errorf("interrupted rerun of a full journal: resumed %d, skipped %d; want %d and 0",
			again.Resumed, again.Skipped, len(want.Rows))
	}
	if !reflect.DeepEqual(again.Rows, want.Rows) {
		t.Errorf("interrupted rerun rows differ from uninterrupted run:\n got: %+v\nwant: %+v", again.Rows, want.Rows)
	}
}

// TestChaosRefusedCheckpointFailsCell opens the chaos journal on a disk
// whose fsyncs fail once the store is open: every append is refused, so
// every cell must fail rather than pass without its checkpoint.
func TestChaosRefusedCheckpointFailsCell(t *testing.T) {
	p := chaosTestParams()
	dir := t.TempDir()
	open := func(fsys fsio.FS, name string) *snapshot.Store {
		st, err := snapshot.OpenFS(fsys, filepath.Join(dir, name), ChaosCampaignKey(p))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// A dry run over a transparent Faulty counts the fsyncs opening a
	// store issues; failing every later one makes the first append fail.
	dry := fsio.NewFaulty(fsio.OS{}, fsio.FaultConfig{})
	drySt := open(dry, "dry.jsonl")
	startupSyncs := dry.Stats().Syncs
	drySt.Close()
	if startupSyncs < 1 {
		t.Fatal("opening a store issued no fsync")
	}
	st := open(fsio.NewFaulty(fsio.OS{}, fsio.FaultConfig{FailSyncAfter: startupSyncs}), "chaos.jsonl")
	defer st.Close()

	rep := ChaosSupervised(p, ChaosOpts{Seeds: 1, Campaign: runner.Campaign{Journal: st}})
	if rep.Passed() {
		t.Fatalf("campaign passed with a refused journal:\n%s", FormatChaosReport(rep))
	}
	if len(rep.Rows) == 0 || len(rep.Errors) != len(rep.Rows) {
		t.Fatalf("%d failed cells of %d rows, want every cell failed", len(rep.Errors), len(rep.Rows))
	}
	for _, le := range rep.Errors {
		if !errors.Is(le.Err, snapshot.ErrJournalFailed) {
			t.Errorf("cell %d failed with %v, want ErrJournalFailed", le.Index, le.Err)
		}
	}
	if st.Len() != 0 {
		t.Errorf("refused journal holds %d cells", st.Len())
	}
}

// TestChaosDeadlineDoesNotAbortCampaign gives every cell an impossible
// deadline: all legs must fail as timeouts, yet the campaign still returns a
// full report with per-cell error rows instead of aborting.
func TestChaosDeadlineDoesNotAbortCampaign(t *testing.T) {
	p := chaosTestParams()
	rep := ChaosSupervised(p, ChaosOpts{Seeds: 1, Campaign: runner.Campaign{Policy: runner.Policy{Deadline: time.Nanosecond}}})
	if len(rep.Errors) == 0 {
		t.Fatal("1ns deadline produced no leg errors")
	}
	if len(rep.Rows) != len(rep.Errors) {
		t.Fatalf("%d rows for %d failed legs; failed cells must still get rows", len(rep.Rows), len(rep.Errors))
	}
	for _, le := range rep.Errors {
		if !le.TimedOut {
			t.Errorf("leg %d failed but not via timeout: %v", le.Index, le.Err)
		}
	}
	for _, r := range rep.Rows {
		if r.Err == "" {
			t.Errorf("row %s/%d missing Err on a timed-out cell", r.Profile, r.Seed)
		}
		if r.Clean() {
			t.Errorf("failed cell %s/%d reported clean", r.Profile, r.Seed)
		}
	}
	if rep.Passed() {
		t.Error("campaign with failed legs reported Passed")
	}
}

// TestChaosDivergenceBisected forces one cell's replay apart from it (onto
// the next seed) and requires the row to read DIVERGED with a bisection
// naming the first divergent tick and subsystem. One cell at a coarse
// scale keeps it cheap: each bisection replay digests full state every
// 500 ms of virtual time.
func TestChaosDivergenceBisected(t *testing.T) {
	p := chaosTestParams()
	p.Scale = 256
	cell := chaosCell{prof: faults.Profiles(p.Scale)[0], backend: vmem.BackendFlash,
		policy: android.PolicyFleet, seed: p.Seed}
	replay := cell
	replay.seed++
	row := chaosCellRow(p, cell, replay)
	if row.Deterministic {
		t.Fatal("replay on another seed compared equal to the cell")
	}
	d := row.Divergence
	if d == nil {
		t.Fatal("divergent cell was not bisected")
	}
	if d.Tick < 1 || d.Subsystem == "" || d.Report == "" {
		t.Errorf("bisection = %+v, want a tick, a subsystem and a report", d)
	}
	if out := FormatChaos([]ChaosRow{row}); !strings.Contains(out, "~ bisected: first divergent tick") {
		t.Errorf("table has no bisection line:\n%s", out)
	}
}

// TestCheckpointedLegSkipsRerun proves a sweep leg recorded in the store is
// answered without re-running the simulation, and that the summary survives
// the JSON round trip intact.
func TestCheckpointedLegSkipsRerun(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 1
	p.PressureApps = 4
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	st, err := snapshot.Open(path, SweepCampaignKey(p))
	if err != nil {
		t.Fatal(err)
	}
	SetCampaign(runner.Campaign{Journal: st})
	defer SetCampaign(runner.Campaign{})

	measured := []string{Fig13Apps[0]}
	pop, meas := pressurePopulation(p, measured)
	var runs atomic.Int32
	leg := func() *legSummary {
		return checkpointedLeg(android.PolicyFleet, measured, func() *hotRun {
			runs.Add(1)
			return runHotLaunches(p, android.PolicyFleet, pop, meas, nil)
		})
	}
	first := leg()
	if runs.Load() != 1 {
		t.Fatalf("first leg ran %d times, want 1", runs.Load())
	}
	st.Close()

	// Reopen: the cached leg must answer without re-running.
	st2, err := snapshot.Open(path, SweepCampaignKey(p))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	SetCampaign(runner.Campaign{Journal: st2})
	second := leg()
	if runs.Load() != 1 {
		t.Fatalf("checkpointed leg re-ran the simulation (%d runs)", runs.Load())
	}
	if first.Kills != second.Kills || first.Policy != second.Policy ||
		first.ColdCount != second.ColdCount || first.HotCount != second.HotCount {
		t.Errorf("cached summary differs: %+v vs %+v", first, second)
	}
	for name, s := range first.All {
		cached := second.All[name]
		if cached == nil || !reflect.DeepEqual(s.Values(), cached.Values()) {
			t.Errorf("app %s: cached sample differs", name)
		}
	}
}

// TestCheckpointedLegKeyedByBackend proves a sweep leg checkpointed on one
// swap backend is not answered for another, while "" and "flash" (the two
// spellings of the default backend) share their checkpoints.
func TestCheckpointedLegKeyedByBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	measured := []string{Fig13Apps[0]}
	runs := 0
	leg := func(backend string) {
		p := DefaultParams()
		p.Backend = backend
		st, err := snapshot.Open(path, SweepCampaignKey(p))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		SetCampaign(runner.Campaign{Journal: st})
		defer SetCampaign(runner.Campaign{})
		checkpointedLeg(android.PolicyFleet, measured, func() *hotRun {
			runs++
			return &hotRun{Policy: android.PolicyFleet, Sys: &android.System{M: &android.Metrics{}}}
		})
	}
	leg("flash")
	leg("")
	if runs != 1 {
		t.Fatalf("leg ran %d times under flash then \"\", want 1", runs)
	}
	leg("zram")
	if runs != 2 {
		t.Fatal("zram leg was answered from the flash checkpoint")
	}
}
