package population

import (
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"fleetsim/internal/android"
	"fleetsim/internal/runner"
	"fleetsim/internal/snapshot"
)

// detSpec keeps the equivalence runs cheap enough to repeat many times
// (2 seeds × 2 policy sets × serial/parallel/resumed) under -race.
// Determinism is independent of per-device fidelity, so it runs at a
// coarse scale with few, small devices.
func detSpec(seed uint64, pols []android.PolicyKind) Spec {
	s := DefaultSpec()
	s.Devices = 6
	s.Seed = seed
	s.Scale = 256
	s.Policies = pols
	s.AppsPerDevice = 4
	s.Sessions = 4
	s.ShardSize = 2
	return s
}

// TestCampaignDeterminism is the tentpole invariant: a campaign's merged
// aggregate — witnessed by its digest — must be bitwise identical whether
// shards ran serially, on a parallel worker pool, or split across an
// interrupted run and a checkpoint resume.
func TestCampaignDeterminism(t *testing.T) {
	defer runner.SetParallelism(0)
	policySets := [][]android.PolicyKind{
		{android.PolicyAndroid, android.PolicyFleet},
		{android.PolicyAndroid, android.PolicyMarvin, android.PolicyFleet},
	}
	for _, seed := range []uint64{1, 7} {
		for _, pols := range policySets {
			spec := detSpec(seed, pols)

			runner.SetParallelism(1)
			serial, err := Run(spec, runner.Campaign{})
			if err != nil {
				t.Fatal(err)
			}
			if !serial.Complete() {
				t.Fatalf("seed %d: serial run incomplete: %+v", seed, serial.Errors)
			}

			runner.SetParallelism(4)
			parallel, err := Run(spec, runner.Campaign{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := parallel.Digest(), serial.Digest(); got != want {
				t.Errorf("seed %d %s: parallel digest %s != serial %s",
					seed, spec.PoliciesString(), got, want)
			}

			// Interrupt after the first fresh shard, then resume from the
			// journal: the stitched aggregate must match bit for bit.
			path := filepath.Join(t.TempDir(), "sweep.jsonl")
			store, err := snapshot.Open(path, "population-test")
			if err != nil {
				t.Fatal(err)
			}
			var polls atomic.Int32
			interrupted, err := Run(spec, runner.Campaign{
				Journal:     store,
				Interrupted: func() bool { return polls.Add(1) > 1 },
			})
			if err != nil {
				t.Fatal(err)
			}
			store.Close()
			if interrupted.SkippedShards == 0 {
				t.Fatalf("seed %d: interrupt did not skip any shard", seed)
			}

			store, err = snapshot.Open(path, "population-test")
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := Run(spec, runner.Campaign{Journal: store})
			if err != nil {
				t.Fatal(err)
			}
			store.Close()
			if resumed.ResumedShards == 0 {
				t.Errorf("seed %d: resume answered no shard from the store", seed)
			}
			if !resumed.Complete() {
				t.Fatalf("seed %d: resumed run incomplete: %+v", seed, resumed.Errors)
			}
			if got, want := resumed.Digest(), serial.Digest(); got != want {
				t.Errorf("seed %d %s: resumed digest %s != serial %s",
					seed, spec.PoliciesString(), got, want)
			}
			if resumed.Devices != serial.Devices {
				t.Errorf("seed %d: resumed devices %d != serial %d",
					seed, resumed.Devices, serial.Devices)
			}
		}
	}
}

// TestExpandDevicePure pins lazy expansion: device i is a pure function
// of (Spec, i) — independent of which shard or worker expands it — and
// its schedule respects the spec's bounds.
func TestExpandDevicePure(t *testing.T) {
	spec := DefaultSpec()
	spec.Devices = 64
	for i := 0; i < spec.Devices; i++ {
		a := spec.ExpandDevice(i, 20)
		b := spec.ExpandDevice(i, 20)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("device %d: expansion not deterministic", i)
		}
		if a.Tier < 0 || a.Tier >= len(spec.Tiers) {
			t.Fatalf("device %d: tier %d out of range", i, a.Tier)
		}
		if len(a.Apps) != spec.AppsPerDevice {
			t.Fatalf("device %d: %d apps, want %d", i, len(a.Apps), spec.AppsPerDevice)
		}
		seen := map[int]bool{}
		for _, app := range a.Apps {
			if app < 0 || app >= 20 {
				t.Fatalf("device %d: app index %d out of catalog", i, app)
			}
			if seen[app] {
				t.Fatalf("device %d: duplicate install %d", i, app)
			}
			seen[app] = true
		}
		if len(a.Plan) != spec.Sessions {
			t.Fatalf("device %d: %d sessions, want %d", i, len(a.Plan), spec.Sessions)
		}
		for k, ses := range a.Plan {
			if ses.App < 0 || ses.App >= len(a.Apps) {
				t.Fatalf("device %d session %d: app %d out of installs", i, k, ses.App)
			}
			if ses.Fg <= 0 {
				t.Fatalf("device %d session %d: non-positive foreground dwell", i, k)
			}
			if ses.Gap < 0 {
				t.Fatalf("device %d session %d: negative gap", i, k)
			}
		}
		if last := a.Plan[len(a.Plan)-1]; last.Gap == 0 {
			t.Fatalf("device %d: schedule must end on a pickup boundary", i)
		}
	}
}

// TestExpandDeviceTierMix checks the weighted tier draw roughly follows
// the configured weights over a larger fleet.
func TestExpandDeviceTierMix(t *testing.T) {
	spec := DefaultSpec()
	n := 2000
	counts := make([]int, len(spec.Tiers))
	for i := 0; i < n; i++ {
		counts[spec.ExpandDevice(i, 20).Tier]++
	}
	total := 0
	for _, tier := range spec.Tiers {
		total += tier.Weight
	}
	for ti, tier := range spec.Tiers {
		want := float64(n) * float64(tier.Weight) / float64(total)
		got := float64(counts[ti])
		if got < want*0.7 || got > want*1.3 {
			t.Errorf("tier %s: %d devices, want ~%.0f", tier.Name, counts[ti], want)
		}
	}
}
