package experiments

import (
	"strings"
	"testing"
)

func TestRegistryInvariants(t *testing.T) {
	specs := Registry()
	if len(specs) == 0 {
		t.Fatal("empty registry")
	}
	seen := map[string]bool{}
	for _, sp := range specs {
		if sp.Name == "" || sp.Desc == "" || sp.Run == nil {
			t.Errorf("incomplete spec %+v", sp)
		}
		if seen[sp.Name] {
			t.Errorf("duplicate experiment name %q", sp.Name)
		}
		seen[sp.Name] = true
	}
	// The headline experiments must stay registered under their paper names.
	for _, name := range []string{"fig2", "fig13", "tab1", "tab2", "tab3", "sec73", "extzram"} {
		if !seen[name] {
			t.Errorf("registry lost %q", name)
		}
	}
	if len(Names()) != len(specs) {
		t.Fatalf("Names() has %d entries, registry %d", len(Names()), len(specs))
	}
}

func TestRegistryLookup(t *testing.T) {
	if sp := ByName("FIG2"); sp == nil || sp.Name != "fig2" {
		t.Fatalf("ByName is not case-insensitive: %+v", sp)
	}
	if sp := ByName("nope"); sp != nil {
		t.Fatalf("ByName invented %+v", sp)
	}
	if _, ok := LookupRun("tab1"); !ok {
		t.Fatal("LookupRun lost tab1")
	}
	if _, ok := LookupRun("nope"); ok {
		t.Fatal("LookupRun resolved a bogus name")
	}
}

// TestRegistrySmoke runs every registered experiment once and requires
// non-empty output. It is the only tier-1 test that reaches some of the
// experiments (fig12b, fig14, fig16), so it guards them against panics and
// silent breakage; -short and -race run a representative subset.
func TestRegistrySmoke(t *testing.T) {
	specs := Registry()
	if testing.Short() || raceEnabled {
		var subset []Spec
		keep := map[string]bool{"fig2": true, "fig11a": true, "fig13": true, "sec74": true, "extzram": true}
		for _, s := range specs {
			if keep[s.Name] {
				subset = append(subset, s)
			}
		}
		specs = subset
	}
	p := detParams(7)
	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			if out := s.Run(p); strings.TrimSpace(out) == "" {
				t.Error("empty output")
			}
		})
	}
}
