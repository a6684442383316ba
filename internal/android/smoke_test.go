package android

import (
	"testing"
	"time"

	"fleetsim/internal/apps"
	"fleetsim/internal/units"
)

const testScale = 32

func testProfile(name string) apps.Profile {
	return apps.SyntheticProfile(name, 512, 180*units.MiB/testScale)
}

func TestSmokeLaunchUseSwitch(t *testing.T) {
	cfg := DefaultSystemConfig(PolicyAndroid, testScale)
	sys := NewSystem(cfg)
	a := sys.Launch(testProfile("A"))
	sys.Use(3 * time.Second)
	b := sys.Launch(testProfile("B"))
	sys.Use(3 * time.Second)
	if sys.Foreground() != b {
		t.Fatal("B should be foreground")
	}
	if a.State() != StateBackground {
		t.Fatalf("A state = %v", a.State())
	}
	d, _ := sys.SwitchTo(a)
	if d <= 0 {
		t.Error("hot launch should take time")
	}
	sys.Use(2 * time.Second)
	if sys.AliveCount() != 2 {
		t.Errorf("alive = %d", sys.AliveCount())
	}
	if len(sys.M.Launches) != 3 {
		t.Errorf("launches = %d", len(sys.M.Launches))
	}
	hot := 0
	for _, l := range sys.M.Launches {
		if l.Hot {
			hot++
		}
	}
	if hot != 1 {
		t.Errorf("hot launches = %d", hot)
	}
}

func TestSmokeAllPolicies(t *testing.T) {
	for _, pol := range []PolicyKind{PolicyAndroid, PolicyMarvin, PolicyFleet} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := DefaultSystemConfig(pol, testScale)
			sys := NewSystem(cfg)
			a := sys.Launch(testProfile("A"))
			sys.Use(2 * time.Second)
			sys.Launch(testProfile("B"))
			// Long enough in background for Fleet grouping (Ts=10s) and
			// Marvin reclaim.
			sys.Use(20 * time.Second)
			d, _ := sys.SwitchTo(a)
			t.Logf("%s: hot launch of A = %v, alive=%d", pol, d, sys.AliveCount())
			sys.Use(2 * time.Second)
			if sys.AliveCount() != 2 {
				t.Errorf("alive = %d", sys.AliveCount())
			}
		})
	}
}
