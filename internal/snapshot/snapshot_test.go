package snapshot

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/apps"
	"fleetsim/internal/simclock"
)

// driveSystem runs a small two-app workload with a recorder attached.
// When perturb is set, one extra page touch is injected at t=6s — an
// intentional determinism break in the vmem layer only.
func driveSystem(t *testing.T, perturb bool) (*android.System, *Recorder) {
	t.Helper()
	cfg := android.DefaultSystemConfig(android.PolicyFleet, 64)
	cfg.Seed = 7
	sys := android.NewSystem(cfg)
	rec := &Recorder{}
	rec.Attach(sys)

	p1 := sys.Launch(apps.SyntheticProfile("alpha", 512, 8<<20))
	sys.Use(2 * time.Second)
	sys.Launch(apps.SyntheticProfile("beta", 512, 8<<20))
	if perturb {
		sys.Clock.Schedule(6*time.Second, "perturb", func(c *simclock.Clock) {
			sys.VM.TouchRange(p1.App.NativeAS, 0, 4096, true)
		})
	}
	sys.Use(10 * time.Second)
	return sys, rec
}

// Two identically-seeded runs must produce identical digest sequences, and
// the bisector must report no divergence.
func TestDigestsDeterministic(t *testing.T) {
	_, ra := driveSystem(t, false)
	_, rb := driveSystem(t, false)
	if len(ra.Digests) == 0 {
		t.Fatal("recorder captured no digests")
	}
	if len(ra.Digests) != len(rb.Digests) {
		t.Fatalf("digest counts differ: %d vs %d", len(ra.Digests), len(rb.Digests))
	}
	for i := range ra.Digests {
		if ra.Digests[i] != rb.Digests[i] {
			t.Fatalf("digest %d differs: %+v vs %+v", i, ra.Digests[i], rb.Digests[i])
		}
	}
	if d := Bisect(ra.Digests, rb.Digests); d != nil {
		t.Fatalf("Bisect reported divergence on identical runs: %v", d)
	}
}

// An intentionally-seeded single page touch at t=6s must be localized by
// the bisector: first divergent tick at or just after 6s, attributed to
// the vmem subsystem (the heap and proc table are untouched).
func TestBisectLocalizesSeededDivergence(t *testing.T) {
	_, clean := driveSystem(t, false)
	_, dirty := driveSystem(t, true)
	d := Bisect(clean.Digests, dirty.Digests)
	if d == nil {
		t.Fatal("Bisect found no divergence between clean and perturbed runs")
	}
	if d.Subsystem != "vmem" {
		t.Errorf("Subsystem = %q, want \"vmem\"\n%s", d.Subsystem, d.Report())
	}
	if d.At < 6*time.Second || d.At >= 7*time.Second {
		t.Errorf("divergence at t=%v, want within [6s,7s) — the first sample after the seeded touch", d.At)
	}
	// Every tick before the divergence must agree: the bisection is exact.
	for i := 0; i < d.Tick-1; i++ {
		if clean.Digests[i] != dirty.Digests[i] {
			t.Errorf("tick %d differs but bisector reported tick %d first", clean.Digests[i].Tick, d.Tick)
		}
	}
	if d.Tick >= 1 && d.Tick <= len(clean.Digests) && clean.Digests[d.Tick-1] == dirty.Digests[d.Tick-1] {
		t.Errorf("bisector reported tick %d but digests agree there", d.Tick)
	}
}

// An attached recorder must not perturb the simulation: a run without one
// reaches bit-identical state.
func TestRecorderDoesNotPerturb(t *testing.T) {
	withRec, _ := driveSystem(t, false)

	cfg := android.DefaultSystemConfig(android.PolicyFleet, 64)
	cfg.Seed = 7
	bare := android.NewSystem(cfg)
	p1 := bare.Launch(apps.SyntheticProfile("alpha", 512, 8<<20))
	_ = p1
	bare.Use(2 * time.Second)
	bare.Launch(apps.SyntheticProfile("beta", 512, 8<<20))
	bare.Use(10 * time.Second)

	a, b := Capture(withRec), Capture(bare)
	// The final wall-clock may differ only via recorder events' zero-cost
	// dispatch — they advance nothing, so even At matches.
	if a != b {
		t.Fatalf("recorder perturbed the run:\n  with:    %+v\n  without: %+v", a, b)
	}
}

func TestBisectLengthMismatch(t *testing.T) {
	a := []SystemDigest{{Tick: 1, At: time.Second, VMem: 1, Heap: 2, Android: 3}}
	b := append(a[:1:1], SystemDigest{Tick: 2, At: 2 * time.Second})
	d := Bisect(a, b)
	if d == nil || d.Subsystem != "schedule" || d.Tick != 2 {
		t.Fatalf("Bisect = %+v, want schedule divergence at tick 2", d)
	}
}

type cellResult struct {
	Name  string
	Mean  float64
	Count int
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt", "campaign.jsonl")
	st, err := Open(path, "campaign-v1")
	if err != nil {
		t.Fatal(err)
	}
	want := []cellResult{
		{Name: "swap-stress/1", Mean: 12.345678901234567, Count: 42},
		{Name: "crash-monkey/2", Mean: 0.1 + 0.2, Count: 7},
	}
	for _, c := range want {
		if err := st.Put(c.Name, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path, "campaign-v1")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Resumed() != len(want) {
		t.Fatalf("Resumed = %d, want %d", st2.Resumed(), len(want))
	}
	for _, c := range want {
		var got cellResult
		if !st2.Get(c.Name, &got) {
			t.Fatalf("cell %q missing after reopen", c.Name)
		}
		// Floats must round-trip exactly — resume correctness depends on it.
		if got != c {
			t.Errorf("cell %q = %+v, want %+v", c.Name, got, c)
		}
	}
}

func TestStoreCampaignMismatchDiscards(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	st, err := Open(path, "params-A")
	if err != nil {
		t.Fatal(err)
	}
	st.Put("cell", cellResult{Name: "cell", Count: 1})
	st.Close()

	st2, err := Open(path, "params-B")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Resumed() != 0 {
		t.Fatalf("Resumed = %d after campaign change, want 0", st2.Resumed())
	}
	var out cellResult
	if st2.Get("cell", &out) {
		t.Fatal("Get returned a cell from a different campaign")
	}
}

func TestStoreToleratesPartialTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	st, err := Open(path, "camp")
	if err != nil {
		t.Fatal(err)
	}
	st.Put("done", cellResult{Name: "done", Count: 3})
	st.Close()

	// Simulate a kill mid-write: a torn, non-JSON trailing line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"cell":"torn","data":{"Na`)
	f.Close()

	st2, err := Open(path, "camp")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var out cellResult
	if !st2.Get("done", &out) || out.Count != 3 {
		t.Fatalf("complete cell lost: got %+v", out)
	}
	if st2.Get("torn", &out) {
		t.Fatal("torn cell should have been dropped")
	}
	if st2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st2.Len())
	}
}
