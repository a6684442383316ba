package experiments

import (
	"fmt"
	"testing"

	"fleetsim/internal/android"
	"fleetsim/internal/metrics"
	"fleetsim/internal/snapshot"
	"fleetsim/internal/telemetry"
)

// runForDigest executes a small hot-launch protocol and returns the final
// system digest plus a rendered summary, so both the simulation state and
// the reported numbers can be compared bitwise across telemetry modes.
func runForDigest() (snapshot.SystemDigest, string) {
	p := DefaultParams().Quick()
	p.Rounds = 2
	pop := allCommercial(p)[:4]
	run := runHotLaunches(p, android.PolicyFleet, pop, nil, nil)
	out := fmt.Sprintf("hot=%d cold=%d mean=%.6f",
		run.HotCount, run.ColdCount, meanOverApps(run.All, (*metrics.Sample).Mean))
	return snapshot.Capture(run.Sys), out
}

// TestTelemetryDoesNotPerturbDeterminism is the tentpole's safety
// property: a same-seed run with the sim-telemetry bridge installed must
// leave the simulation in bitwise-identical state (and report identical
// numbers) to a run with telemetry off.
func TestTelemetryDoesNotPerturbDeterminism(t *testing.T) {
	telemetry.SetSimRegistry(nil)
	offDigest, offOut := runForDigest()

	reg := telemetry.NewRegistry()
	telemetry.SetSimRegistry(reg)
	defer telemetry.SetSimRegistry(nil)
	onDigest, onOut := runForDigest()

	if offDigest != onDigest {
		t.Fatalf("telemetry perturbed the simulation:\noff: %+v\non:  %+v", offDigest, onDigest)
	}
	if offOut != onOut {
		t.Fatalf("telemetry perturbed reported results:\noff: %s\non:  %s", offOut, onOut)
	}

	// And the bridge did actually publish: the run's launches must be
	// visible in the registry under the policy label.
	hot := reg.Histogram("fleetsim_hot_launch_ms",
		"Hot-launch latency by memory policy.", telemetry.LatencyBuckets, "policy", android.PolicyFleet.String())
	cold := reg.Histogram("fleetsim_cold_launch_ms",
		"Cold-launch latency by memory policy.", telemetry.LatencyBuckets, "policy", android.PolicyFleet.String())
	if hot.Count()+cold.Count() == 0 {
		t.Fatal("telemetry bridge enabled but no launches were published")
	}
}

// TestPopulationTelemetryDoesNotPerturbDeterminism extends the safety
// property to the fleet campaign: the population experiment's rendered
// report (fleet digest included) must be byte-identical with the
// telemetry bridge on and off, while an installed registry does receive
// the campaign's device totals and per-tier launch histograms.
func TestPopulationTelemetryDoesNotPerturbDeterminism(t *testing.T) {
	p := DefaultParams()
	p.Devices = 4
	p.Scale = 256
	p.Policies = "Android,Fleet"

	telemetry.SetSimRegistry(nil)
	off := RunPopulation(p)

	reg := telemetry.NewRegistry()
	telemetry.SetSimRegistry(reg)
	defer telemetry.SetSimRegistry(nil)
	on := RunPopulation(p)

	if off != on {
		t.Fatalf("telemetry perturbed the campaign report:\noff: %s\non:  %s", off, on)
	}
	spec, err := PopulationSpec(p)
	if err != nil {
		t.Fatal(err)
	}
	var devices int64
	for _, pol := range spec.Policies {
		for _, tier := range spec.Tiers {
			devices += reg.Counter("fleetsim_population_devices_total",
				"Fleet devices simulated by population campaigns, by policy and tier.",
				"policy", pol.String(), "tier", tier.Name).Value()
		}
	}
	if want := int64(p.Devices * len(spec.Policies)); devices != want {
		t.Fatalf("campaign telemetry published %d devices, want %d", devices, want)
	}
}

// TestZramTelemetryFamilies pins that a run on the compressed backend
// publishes the fleetsim_zram_* counter families (and the swam kill kind
// registers without perturbing anything) — the same families the fleetd
// smoke workflow asserts on /metrics.
func TestZramTelemetryFamilies(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetSimRegistry(reg)
	defer telemetry.SetSimRegistry(nil)

	p := DefaultParams().Quick()
	p.Rounds = 2
	p.Backend = "zram"
	pop := allCommercial(p)[:4]
	runHotLaunches(p, android.PolicyFleet, pop, nil, nil)

	policy := android.PolicyFleet.String()
	get := func(name, help string) int64 {
		return reg.Counter(name, help, "policy", policy, "backend", "zram").Value()
	}
	stored := get("fleetsim_zram_stored_pages",
		"Pages resident compressed in the zram pool at end of run.")
	falls := get("fleetsim_zram_fallthroughs_total",
		"Incompressible pages routed straight to backing flash.")
	comp := get("fleetsim_zram_compress_cpu_ms_total",
		"CPU time charged to reclaim for page compression.")
	if stored+falls == 0 {
		t.Errorf("zram run published no page activity: stored=%d fallthroughs=%d", stored, falls)
	}
	if comp == 0 {
		t.Error("zram run published zero compression CPU")
	}
}

// TestCaptureTraceDeterministic pins that the canonical trace scenario is
// a pure function of (params, policy) — fleetsim and fleetd serve
// byte-identical traces — and that its Chrome export is structurally
// valid.
func TestCaptureTraceDeterministic(t *testing.T) {
	p := DefaultParams()
	a := CaptureTrace(p, android.PolicyFleet)
	b := CaptureTrace(p, android.PolicyFleet)
	if a.Len() == 0 {
		t.Fatal("trace scenario recorded no events")
	}
	aj, err := a.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatal("same-seed trace exports differ")
	}
}
