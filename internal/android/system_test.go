package android

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"fleetsim/internal/apps"
	"fleetsim/internal/core"
	"fleetsim/internal/mem"
	"fleetsim/internal/trace"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
)

func TestLaunchRecordsCold(t *testing.T) {
	sys := NewSystem(DefaultSystemConfig(PolicyAndroid, testScale))
	p := sys.Launch(testProfile("A"))
	if !p.Alive() || p.State() != StateForeground {
		t.Fatalf("launched proc: alive=%v state=%v", p.Alive(), p.State())
	}
	if len(sys.M.Launches) != 1 || sys.M.Launches[0].Hot {
		t.Fatalf("launch records: %+v", sys.M.Launches)
	}
	if sys.M.Launches[0].Time < testProfile("A").ColdLaunchCPU {
		t.Error("cold launch cheaper than its CPU floor")
	}
}

func TestSwitchToSelfIsFree(t *testing.T) {
	sys := NewSystem(DefaultSystemConfig(PolicyAndroid, testScale))
	p := sys.Launch(testProfile("A"))
	d, np := sys.SwitchTo(p)
	if d != 0 || np != p {
		t.Errorf("switch to foreground self: d=%v", d)
	}
}

func TestSwitchToDeadRelaunchesCold(t *testing.T) {
	sys := NewSystem(DefaultSystemConfig(PolicyAndroid, testScale))
	a := sys.Launch(testProfile("A"))
	sys.Launch(testProfile("B"))
	sys.Use(2 * time.Second)
	sys.Kill(a)
	if a.Alive() {
		t.Fatal("kill failed")
	}
	d, np := sys.SwitchTo(a)
	if np == a || !np.Alive() {
		t.Fatal("relaunch did not create a fresh process")
	}
	if d < testProfile("A").ColdLaunchCPU {
		t.Errorf("relaunch time %v below cold floor", d)
	}
	last := sys.M.Launches[len(sys.M.Launches)-1]
	if last.Hot {
		t.Error("relaunch of a dead app must be recorded as cold")
	}
}

func TestKillReleasesMemory(t *testing.T) {
	sys := NewSystem(DefaultSystemConfig(PolicyAndroid, testScale))
	a := sys.Launch(testProfile("A"))
	sys.Launch(testProfile("B"))
	sys.Use(2 * time.Second)
	before := sys.VM.Phys.FreeFrames()
	sys.Kill(a)
	if sys.VM.Phys.FreeFrames() <= before {
		t.Error("kill did not free frames")
	}
	if a.App.FootprintBytes() != 0 {
		t.Errorf("footprint after kill = %d", a.App.FootprintBytes())
	}
	// Double-kill is a no-op.
	sys.Kill(a)
	if sys.M.Kills != 1 {
		t.Errorf("kills = %d", sys.M.Kills)
	}
}

func TestLmkdKillsLRUVictim(t *testing.T) {
	sys := NewSystem(DefaultSystemConfig(PolicyAndroid, testScale))
	var procs []*Proc
	// Launch until something dies; the victim must be among the oldest.
	for i := 0; i < 24 && sys.M.Kills == 0; i++ {
		procs = append(procs, sys.Launch(testProfile(string(rune('A'+i)))))
		sys.Use(5 * time.Second)
	}
	if sys.M.Kills == 0 {
		t.Skip("no pressure reached at this scale")
	}
	// The very newest procs must be alive; the dead one should be early.
	if !procs[len(procs)-1].Alive() {
		t.Error("newest app killed — not LRU order")
	}
	deadIdx := -1
	for i, p := range procs {
		if !p.Alive() {
			deadIdx = i
			break
		}
	}
	if deadIdx > len(procs)/2 {
		t.Errorf("first victim at index %d of %d — not LRU-ish", deadIdx, len(procs))
	}
}

func TestFrameAccounting(t *testing.T) {
	sys := NewSystem(DefaultSystemConfig(PolicyAndroid, testScale))
	sys.Launch(testProfile("A"))
	sys.Use(5 * time.Second)
	fs := sys.M.Frames["A"]
	if fs == nil || fs.Frames == 0 {
		t.Fatal("no frames recorded")
	}
	if fs.JankRatio() < 0 || fs.JankRatio() > 1 {
		t.Errorf("jank ratio = %v", fs.JankRatio())
	}
	if fs.FPS() <= 0 || fs.FPS() > 61 {
		t.Errorf("fps = %v", fs.FPS())
	}
}

func TestBackgroundTicksStopAfterDeath(t *testing.T) {
	sys := NewSystem(DefaultSystemConfig(PolicyAndroid, testScale))
	a := sys.Launch(testProfile("A"))
	sys.Launch(testProfile("B"))
	sys.Use(2 * time.Second)
	sys.Kill(a)
	// Must not panic accessing a's released memory.
	sys.Use(10 * time.Second)
}

// TestDeadProcessKeepsNoHeap runs a kill-heavy session, then one more
// Launch. Every process killed before that launch must be retired: its
// heap holds no object table, its app no pools and its empty address
// spaces no page record, while everything the system still reads of it
// (name, lifecycle, footprint) is unchanged, the invariant sweep passes,
// and switching to it relaunches it cold. The new app's heap must have
// adopted the largest retired heap's tables.
func TestDeadProcessKeepsNoHeap(t *testing.T) {
	const scale = 64
	cfg := DefaultSystemConfig(PolicyAndroid, scale)
	cfg.Device = Pixel3Zram(scale)
	sys := NewSystem(cfg)
	profiles := apps.CommercialProfiles(scale)
	for _, pr := range profiles {
		sys.Launch(pr)
		sys.Use(3 * time.Second)
	}

	type view struct {
		name      string
		state     ProcState
		alive     bool
		lastFg    time.Duration
		footprint int64
	}
	look := func(p *Proc) view {
		return view{p.Name(), p.State(), p.Alive(), p.LastForeground(), p.App.FootprintBytes()}
	}
	before := map[*Proc]view{}
	var dead []*Proc
	largest := 0
	for _, p := range sys.Procs() {
		if !p.Alive() {
			dead = append(dead, p)
			before[p] = look(p)
			largest = max(largest, p.App.H.TableCap())
		}
	}
	if len(dead) < 2 || largest == 0 {
		t.Fatalf("session left %d dead processes, largest unretired table %d: the test needs kills since the last launch",
			len(dead), largest)
	}

	np := sys.Launch(testProfile("Z"))
	empty := 0
	for _, p := range dead {
		if n := p.App.H.ObjectTableSize(); n != 0 {
			t.Errorf("%s: dead heap keeps an object table of %d entries", p.Name(), n)
		}
		if len(p.App.Views()) != 0 || p.App.R != nil {
			t.Errorf("%s: dead app keeps %d views (random stream kept: %v)", p.Name(), len(p.App.Views()), p.App.R != nil)
		}
		if got := look(p); got != before[p] {
			t.Errorf("%s: retiring changed what the system reads: %+v, was %+v", p.Name(), got, before[p])
		}
		for _, as := range []*mem.AddressSpace{p.App.H.AS, p.App.NativeAS} {
			if as.ResidentPages() != 0 || as.SwappedPages() != 0 {
				continue
			}
			empty++
			if n := pageRecords(as); n != 0 {
				t.Errorf("%s: empty dead address space keeps %d page records", as.Owner, n)
			}
		}
	}
	if empty == 0 {
		t.Error("no dead address space was empty; the test needs one to drop")
	}
	if v := sys.CheckInvariants(); len(v) > 0 {
		t.Errorf("invariants after retiring: %v", v)
	}
	if got := np.App.H.TableCap(); got < largest {
		t.Errorf("new heap's table capacity %d is below the largest retired heap's %d", got, largest)
	}

	victim := dead[0]
	_, rp := sys.SwitchTo(victim)
	if rp == victim || !rp.Alive() || rp.Name() != victim.Name() {
		t.Fatalf("SwitchTo(%s) did not relaunch a fresh process", victim.Name())
	}
	if last := sys.M.Launches[len(sys.M.Launches)-1]; last.Hot || last.App != victim.Name() {
		t.Errorf("relaunch of retired %s recorded as %+v, want a cold launch", victim.Name(), last)
	}
}

// pageRecords counts the page records an address space holds.
func pageRecords(as *mem.AddressSpace) int {
	n := 0
	as.ForEachPage(func(*mem.Page) { n++ })
	return n
}

// TestRetireKeepsPagesStillHeld: a dead process whose heap space still
// holds a resident page at the next launch (as when a collection that
// outlived the kill mapped it) keeps every page record of that space, so
// the invariant sweep still counts the frame, while its empty native space
// drops its records.
func TestRetireKeepsPagesStillHeld(t *testing.T) {
	sys := NewSystem(DefaultSystemConfig(PolicyAndroid, testScale))
	a := sys.Launch(testProfile("A"))
	sys.Launch(testProfile("B"))
	sys.Use(2 * time.Second)
	sys.Kill(a)
	if _, err := sys.VM.TouchRange(a.App.H.AS, 0, 1, true); err != nil {
		t.Fatal(err)
	}
	records := pageRecords(a.App.H.AS)
	if pageRecords(a.App.NativeAS) == 0 {
		t.Fatal("the killed app never touched its native space; the test needs records to drop")
	}

	sys.Launch(testProfile("C"))
	if got := pageRecords(a.App.H.AS); got != records || a.App.H.AS.ResidentPages() != 1 {
		t.Errorf("dead heap space holding a resident page kept %d of %d records, %d resident",
			got, records, a.App.H.AS.ResidentPages())
	}
	if n := pageRecords(a.App.NativeAS); n != 0 {
		t.Errorf("empty dead native space keeps %d page records", n)
	}
	if v := sys.CheckInvariants(); len(v) > 0 {
		t.Errorf("invariants after retiring: %v", v)
	}
}

func TestFleetLifecycleWiring(t *testing.T) {
	cfg := DefaultSystemConfig(PolicyFleet, testScale)
	sys := NewSystem(cfg)
	a := sys.Launch(testProfile("A"))
	if a.Fleet == nil {
		t.Fatal("fleet not attached")
	}
	sys.Use(2 * time.Second)
	sys.Launch(testProfile("B"))
	if a.Fleet.State() != core.StatePendingGroup {
		t.Errorf("after backgrounding: %v", a.Fleet.State())
	}
	// Grouping runs after Ts (10 s).
	sys.Use(12 * time.Second)
	if a.Fleet.State() != core.StateActive {
		t.Errorf("after Ts: %v", a.Fleet.State())
	}
	if len(a.Fleet.ColdRegions()) == 0 {
		t.Error("grouping produced no cold regions")
	}
	// Hot-launch: pending stop, then inactive after Tf (3 s).
	sys.SwitchTo(a)
	if a.Fleet.State() != core.StatePendingStop {
		t.Errorf("after hot launch: %v", a.Fleet.State())
	}
	sys.Use(5 * time.Second)
	if a.Fleet.State() != core.StateInactive {
		t.Errorf("after Tf: %v", a.Fleet.State())
	}
}

func TestFleetGroupingCancelledByQuickReturn(t *testing.T) {
	cfg := DefaultSystemConfig(PolicyFleet, testScale)
	sys := NewSystem(cfg)
	a := sys.Launch(testProfile("A"))
	sys.Use(2 * time.Second)
	sys.Launch(testProfile("B"))
	// Come back before Ts expires: grouping must not run afterwards.
	sys.Use(3 * time.Second)
	sys.SwitchTo(a)
	sys.Use(15 * time.Second)
	groupings := 0
	for _, g := range sys.M.GCs {
		if g.App == "A" && g.Kind == "grouping" {
			groupings++
		}
	}
	if groupings != 0 {
		t.Errorf("grouping ran %d times despite quick return", groupings)
	}
}

func TestMarvinWiring(t *testing.T) {
	cfg := DefaultSystemConfig(PolicyMarvin, testScale)
	sys := NewSystem(cfg)
	a := sys.Launch(apps.SyntheticProfile("A", 2048, 180*units.MiB/testScale))
	sys.Use(2 * time.Second)
	sys.Launch(apps.SyntheticProfile("B", 2048, 180*units.MiB/testScale))
	sys.Use(25 * time.Second) // reclaim fires 10 s after backgrounding
	if a.Marvin == nil {
		t.Fatal("marvin not attached")
	}
	if a.Marvin.BookmarkedObjects() == 0 {
		t.Error("marvin reclaim never ran in background")
	}
}

func TestGCRecordsTagged(t *testing.T) {
	sys := NewSystem(DefaultSystemConfig(PolicyAndroid, testScale))
	sys.Launch(testProfile("A"))
	sys.Use(2 * time.Second)
	sys.Launch(testProfile("B"))
	sys.Use(90 * time.Second) // periodic background GC fires
	var fg, bg int
	for _, g := range sys.M.GCs {
		if g.Background {
			bg++
		} else {
			fg++
		}
	}
	if fg == 0 || bg == 0 {
		t.Errorf("GC records fg=%d bg=%d, want both kinds", fg, bg)
	}
}

func TestPixel3Config(t *testing.T) {
	d := Pixel3(1)
	if d.DRAMBytes != 4*units.GiB || d.Swap.SizeBytes != 2*units.GiB {
		t.Errorf("full-scale Pixel3 wrong: %+v", d)
	}
	d32 := Pixel3(32)
	if d32.DRAMBytes != 4*units.GiB/32 {
		t.Errorf("scaled DRAM = %d", d32.DRAMBytes)
	}
	if want := vmem.UFSFlashProfile().ReadBandwidth / 32; d32.Swap.Profile.ReadBandwidth != want {
		t.Errorf("bandwidth must scale with memory: %v", d32.Swap.Profile.ReadBandwidth)
	}
	if Pixel3NoSwap(32).Swap.SizeBytes != 0 {
		t.Error("no-swap variant has swap")
	}
	if d.AppBytes() >= d.DRAMBytes {
		t.Error("system reservation missing")
	}
}

func TestAliveTraceAndHighWater(t *testing.T) {
	sys := NewSystem(DefaultSystemConfig(PolicyAndroid, testScale))
	sys.Launch(testProfile("A"))
	sys.Use(time.Second)
	sys.Launch(testProfile("B"))
	sys.Use(time.Second)
	if sys.M.AliveHighWater != 2 {
		t.Errorf("high water = %d", sys.M.AliveHighWater)
	}
	if len(sys.M.AliveTrace) != 2 || sys.M.AliveTrace[1] != 2 {
		t.Errorf("alive trace = %v", sys.M.AliveTrace)
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyAndroid.String() != "Android" || PolicyMarvin.String() != "Marvin" || PolicyFleet.String() != "Fleet" {
		t.Error("policy strings")
	}
	if StateForeground.String() != "foreground" || StateBackground.String() != "background" || StateDead.String() != "dead" {
		t.Error("state strings")
	}
}

func TestHotLaunchSampleFiltersApp(t *testing.T) {
	sys := NewSystem(DefaultSystemConfig(PolicyAndroid, testScale))
	a := sys.Launch(testProfile("A"))
	sys.Use(time.Second)
	sys.Launch(testProfile("B"))
	sys.Use(time.Second)
	sys.SwitchTo(a)
	type key struct {
		app string
		hot bool
	}
	got := map[key]int{}
	for _, l := range sys.M.Launches {
		got[key{l.App, l.Hot}]++
	}
	want := map[key]int{{"A", false}: 1, {"B", false}: 1, {"A", true}: 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("launches per (app, hot) = %v, want %v", got, want)
	}
}

func TestTraceRecordsSystemEvents(t *testing.T) {
	sys := NewSystem(DefaultSystemConfig(PolicyFleet, testScale))
	log := sys.EnableTrace()
	a := sys.Launch(testProfile("A"))
	sys.Use(2 * time.Second)
	sys.Launch(testProfile("B"))
	sys.Use(15 * time.Second) // grouping + at least one bg GC window
	sys.SwitchTo(a)
	sys.Use(time.Second)

	if len(log.Filter("launch", "")) != 3 {
		t.Errorf("launch events = %d, want 3", len(log.Filter("launch", "")))
	}
	hot := log.Filter("launch", "A")
	foundHot := false
	for _, e := range hot {
		if e.Detail == "hot" && e.Dur > 0 {
			foundHot = true
		}
	}
	if !foundHot {
		t.Error("no hot launch event for A")
	}
	if len(log.Filter("gc", "")) == 0 {
		t.Error("no GC events")
	}
	if len(log.Filter("state", "")) == 0 {
		t.Error("no state events")
	}
	// Events must be time ordered.
	evs := log.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("trace not time ordered")
		}
	}
}

// TestLmkdKillsReachTrace checks that every lmkd kill is logged. In a
// Fig. 11a-style capacity run (28 synthetic 2048-B apps, 15 s of use each)
// stock Android's PSI monitor and Swam's responsiveness monitor both kill;
// the trace's kill events for that trigger must match the policy's counter,
// and all kill events together must match Kills.
func TestLmkdKillsReachTrace(t *testing.T) {
	const scale = 64
	for _, c := range []struct {
		pol     PolicyKind
		trigger string
		kills   func(*Metrics) int
	}{
		{PolicyAndroid, "psi", func(m *Metrics) int { return m.PSIKills }},
		{PolicySwam, "swam", func(m *Metrics) int { return m.SwamKills }},
	} {
		t.Run(c.pol.String(), func(t *testing.T) {
			sys := NewSystem(DefaultSystemConfig(c.pol, scale))
			log := sys.EnableTrace()
			for i := 0; i < 28; i++ {
				sys.Launch(apps.SyntheticProfile(fmt.Sprintf("s%d", i), 2048, 180*units.MiB/scale))
				sys.Use(15 * time.Second)
			}
			events := map[string]int{}
			total := 0
			for _, e := range log.Filter(trace.KindKill, "") {
				events[e.Detail]++
				total++
			}
			t.Logf("kill events by trigger: %v", events)
			if n := c.kills(sys.M); n == 0 || events[c.trigger] != n {
				t.Errorf("%s: %d kill events, counter %d (want equal and > 0)", c.trigger, events[c.trigger], n)
			}
			if total != sys.M.Kills {
				t.Errorf("kill events %v sum to %d, Kills = %d", events, total, sys.M.Kills)
			}
		})
	}
}
