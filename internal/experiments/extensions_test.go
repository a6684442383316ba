package experiments

import "testing"

// Extension studies beyond the paper's evaluation; assertions capture the
// qualitative findings documented in EXPERIMENTS.md.

func TestExtPrefetchStory(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows := ExtPrefetch(quick())
	stock, asap, fleet := rows[0], rows[1], rows[2]
	// Prefetching slashes Android's median (sequential beats random IO)…
	if asap.MedianMs >= stock.MedianMs*0.8 {
		t.Errorf("prefetch did not help the median: %v vs %v", asap.MedianMs, stock.MedianMs)
	}
	// …but does nothing for the GC-swap conflict, so kills (and the cold
	// tail they cause) stay Android-like while Fleet avoids them.
	if fleet.Kills >= asap.Kills {
		t.Errorf("Fleet kills %d should undercut prefetch kills %d", fleet.Kills, asap.Kills)
	}
	if fleet.P90Ms >= asap.P90Ms {
		t.Errorf("Fleet p90 %v should beat prefetch p90 %v", fleet.P90Ms, asap.P90Ms)
	}
}

func TestExtZramStory(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows := ExtZram(quick())
	flashA, flashF, zramA, zramF := rows[0], rows[1], rows[2], rows[3]
	// Fleet wins on both devices.
	if flashF.MedianMs >= flashA.MedianMs {
		t.Errorf("Fleet flash median %v not below Android %v", flashF.MedianMs, flashA.MedianMs)
	}
	if zramF.MedianMs >= zramA.MedianMs {
		t.Errorf("Fleet zram median %v not below Android %v", zramF.MedianMs, zramA.MedianMs)
	}
	// zram narrows Android's latency gap (faster swap-ins)…
	if zramA.MedianMs >= flashA.MedianMs {
		t.Errorf("zram should cut Android's median: %v vs %v", zramA.MedianMs, flashA.MedianMs)
	}
	// …at the cost of stolen DRAM: more kills than the flash device.
	if zramA.Kills <= flashA.Kills {
		t.Errorf("zram should raise kill pressure: %d vs %d", zramA.Kills, flashA.Kills)
	}
}

// TestExtZramFlashRowsIgnoreBackend: the flash rows of the backend
// comparison run on the flash device even when Params select zram.
func TestExtZramFlashRowsIgnoreBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := detParams(7)
	want := ExtZram(p)[:2]
	p.Backend = "zram"
	got := ExtZram(p)[:2]
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("-backend zram %s row = %+v, want the flash run's %+v", want[i].Label, got[i], want[i])
		}
	}
}

func TestExtSwamStory(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows := ExtSwam(quick())
	flashA, flashS, zramA, zramS := rows[0], rows[1], rows[2], rows[3]
	// On flash the refault-stall signal is strong: SWAM's proactive reclaim
	// converts synchronous GC-time faults into background write-out and
	// beats the PSI lmkd's median without extra kills.
	if flashS.MedianMs >= flashA.MedianMs {
		t.Errorf("Swam flash median %v not below Android %v", flashS.MedianMs, flashA.MedianMs)
	}
	if flashS.Kills > flashA.Kills {
		t.Errorf("Swam flash kills %d exceed Android %d", flashS.Kills, flashA.Kills)
	}
	// On the compressed device decompression is nearly free, the signal
	// barely registers, and capacity (hard kills) binds for both policies —
	// SWAM must at least not make things worse.
	if zramS.MedianMs > zramA.MedianMs*1.05 {
		t.Errorf("Swam zram median %v materially worse than Android %v", zramS.MedianMs, zramA.MedianMs)
	}
	if zramS.Kills > zramA.Kills {
		t.Errorf("Swam zram kills %d exceed Android %d", zramS.Kills, zramA.Kills)
	}
}

func TestExtDepthSweepUShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows := ExtDepthSweep(quick())
	byDepth := map[string]ExtRow{}
	for _, r := range rows {
		byDepth[r.Label] = r
	}
	d0, d2 := byDepth["Fleet D=0"], byDepth["Fleet D=2"]
	// Table 2's D=2 must beat D=0 (no near-root protection at all).
	if d2.MedianMs >= d0.MedianMs {
		t.Errorf("D=2 median %v should beat D=0 %v", d2.MedianMs, d0.MedianMs)
	}
}

func TestExtAdviceAblationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows := ExtAdviceAblation(quick())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MedianMs <= 0 {
			t.Errorf("%s: empty result", r.Label)
		}
	}
}
