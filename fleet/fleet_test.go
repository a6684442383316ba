package fleet_test

import (
	"strings"
	"testing"
	"time"

	"fleetsim/fleet"
)

// These tests exercise the public API exactly as a downstream user would.

func TestQuickstartFlow(t *testing.T) {
	const scale = 32
	sys := fleet.NewSystem(fleet.DefaultSystemConfig(fleet.PolicyFleet, scale))

	tw := fleet.AppByName("Twitter", scale)
	if tw == nil {
		t.Fatal("Twitter profile missing")
	}
	proc := sys.Launch(*tw)
	sys.Use(5 * time.Second)

	sys.Launch(fleet.SyntheticApp("filler", 512, 4<<20))
	sys.Use(15 * time.Second)

	d, np := sys.SwitchTo(proc)
	if d <= 0 {
		t.Error("hot launch should take time")
	}
	if np != proc {
		t.Error("cached app should keep its process")
	}
	if len(sys.M.Launches) != 3 {
		t.Errorf("launch records = %d", len(sys.M.Launches))
	}
}

func TestPolicyConstants(t *testing.T) {
	if fleet.PolicyAndroid.String() != "Android" ||
		fleet.PolicyMarvin.String() != "Marvin" ||
		fleet.PolicyFleet.String() != "Fleet" {
		t.Error("policy naming broken")
	}
}

func TestDefaultFleetConfigIsTable2(t *testing.T) {
	if cfg := fleet.DefaultFleetConfig(); cfg != (fleet.FleetConfig{NRODepth: 2}) {
		t.Errorf("Table 2 defaults wrong: %+v", cfg)
	}
	// Ts, Tf and CARD_SHIFT are constants; tab2 prints them.
	tab2 := fleet.ExperimentByName("tab2").Run(fleet.DefaultParams())
	for _, want := range []string{"Background wait Ts:   10s", "Foreground wait Tf:   3s", "CARD_SHIFT:           10"} {
		if !strings.Contains(tab2, want) {
			t.Errorf("tab2 lacks %q:\n%s", want, tab2)
		}
	}
}

func TestDeviceConfigs(t *testing.T) {
	full := fleet.Pixel3(1)
	if full.DRAMBytes != 4<<30 {
		t.Errorf("Pixel3 DRAM = %d", full.DRAMBytes)
	}
	if fleet.Pixel3NoSwap(1).Swap.SizeBytes != 0 {
		t.Error("no-swap device has swap")
	}
}

func TestCommercialAppsComplete(t *testing.T) {
	if got := len(fleet.CommercialApps(32)); got != 18 {
		t.Errorf("commercial apps = %d, want 18 (Table 3)", got)
	}
	if fleet.AppByName("nope", 32) != nil {
		t.Error("unknown app should be nil")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() time.Duration {
		sys := fleet.NewSystem(fleet.DefaultSystemConfig(fleet.PolicyAndroid, 32))
		p := sys.Launch(*fleet.AppByName("Spotify", 32))
		sys.Use(5 * time.Second)
		sys.Launch(*fleet.AppByName("Chrome", 32))
		sys.Use(20 * time.Second)
		d, _ := sys.SwitchTo(p)
		return d
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different results: %v vs %v", a, b)
	}
}

func TestParamsQuick(t *testing.T) {
	p := fleet.DefaultParams()
	q := p.Quick()
	if q.Rounds >= p.Rounds {
		t.Error("Quick() should reduce rounds")
	}
	if q.Scale != p.Scale {
		t.Error("Quick() must not change the device")
	}
}
