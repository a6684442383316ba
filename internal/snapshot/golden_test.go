package snapshot

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/apps"
	"fleetsim/internal/core"
)

// goldenCell is the pinned outcome of one policy × backend session: the
// final subsystem digests plus a fold of every GC record.
type goldenCell struct {
	VMem, Heap, Android, GCs Digest
}

// String prints a cell in the table's own syntax, so a deliberate
// re-record is a copy of the failure message.
func (c goldenCell) String() string {
	return fmt.Sprintf("{VMem: %#x, Heap: %#x, Android: %#x, GCs: %#x}",
		uint64(c.VMem), uint64(c.Heap), uint64(c.Android), uint64(c.GCs))
}

// goldenKinds lists the collector kinds each policy's session must run, so
// the pin cannot pass vacuously with a collector that never fired. Fleet
// runs a major collection only as a fallback or on every eighth foreground
// cycle, which a short session does not reach; the Android and Swam cells
// pin the major collector.
var goldenKinds = map[string][]string{
	"Android": {"minor", "major"},
	"Marvin":  {"bookmark"},
	"Fleet":   {"minor", "grouping", "bgc"},
	"Swam":    {"minor", "major"},
}

// golden holds the digests recorded at commit 36bc103, before the
// collectors' evacuation loops were folded into gc.Evacuate. A change that
// claims to keep the simulated output byte-identical must reproduce them;
// a change that moves the output on purpose re-records them and says why.
// Swam/flash's Heap was re-recorded when Capture stopped folding dead
// processes' heaps: it is the only session in which lmkd kills an app.
// Its VMem was re-recorded when a retired process began dropping the page
// records of its empty address spaces, which SpaceDigest then no longer
// folds.
var golden = map[string]goldenCell{
	"Android/flash": {VMem: 0x450384fa49f8461e, Heap: 0x30f4a3c9f7ee4c93, Android: 0xa297632a36f4b0f7, GCs: 0x21bece8df0dbf89b},
	"Android/zram":  {VMem: 0x1bdcc7ec80bcbfd, Heap: 0x309ee8ee9e386b1e, Android: 0x7a53ee7bf54b9623, GCs: 0x21bece8df0dbf89b},
	"Marvin/flash":  {VMem: 0x90ada2b5051fc8d6, Heap: 0x49cc70ff5d78cc96, Android: 0xf2e63bc5abd2ebf7, GCs: 0x6037ddc5c21aed4d},
	"Marvin/zram":   {VMem: 0x2265ac69d3825532, Heap: 0x2d5a75bd267f4d32, Android: 0x6a38418df20b824a, GCs: 0x7af7de91cc0715f3},
	"Fleet/flash":   {VMem: 0x8d4516a1a550ea44, Heap: 0xaf318e9df797792d, Android: 0x4d6d2e54f28f4fc4, GCs: 0xa4882ad6db74a626},
	"Fleet/zram":    {VMem: 0xdc35324a1ec03b6d, Heap: 0x679d4ecee279a1d0, Android: 0x7d1f7e999a753def, GCs: 0x7492f77431206d1e},
	"Swam/flash":    {VMem: 0x12feaeff82ce7a5, Heap: 0x97978b5398aa6fbc, Android: 0xdc0a9f506183f115, GCs: 0x405cb945932bdc31},
	"Swam/zram":     {VMem: 0x6bee8f21e620e541, Heap: 0x79cbc731d9f8fff, Android: 0x3ffd21061d8515c5, GCs: 0x21bece8df0dbf89b},
}

// goldenSession runs the pinned workload: commercial apps launched and
// used in turn, a screen-off idle long enough for the background GC
// period and Fleet's grouping wait to pass, then a hot switch through
// every app.
func goldenSession(policy android.PolicyKind, backend string) *android.System {
	const scale = 64
	cfg := android.DefaultSystemConfig(policy, scale)
	if backend == "zram" {
		cfg.Device = android.Pixel3Zram(scale)
	}
	cfg.Seed = 5
	sys := android.NewSystem(cfg)
	profiles := apps.CommercialProfiles(scale)[:10]
	procs := make([]*android.Proc, len(profiles))
	for i, pr := range profiles {
		procs[i] = sys.Launch(pr)
		sys.Use(3 * time.Second)
	}
	sys.Idle(max(cfg.BgGCPeriod, core.BackgroundWait) + 5*time.Second)
	for _, p := range procs {
		sys.SwitchTo(p)
		sys.Use(3 * time.Second)
	}
	return sys
}

// gcDigest folds every field of every GC record, in order.
func gcDigest(recs []android.GCRecord) Digest {
	h := NewHasher()
	for _, g := range recs {
		h.Str(g.App)
		h.Str(g.Kind)
		h.Bool(g.Background)
		h.I64(g.ObjectsTraced)
		h.I64(g.BytesCopied)
		h.Dur(g.Pause)
		h.Dur(g.FaultStall)
		h.Dur(g.CPU)
		h.Dur(g.At)
	}
	return h.Sum()
}

// TestGoldenOutput compares a short seeded session per registered policy
// and swap backend against digests recorded from an earlier commit. The
// determinism tests compare one run with another run of the same code;
// this one catches a change that moves every run the same way.
func TestGoldenOutput(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		// The Go spec lets the compiler fuse x*y+z into one rounding on
		// other architectures, so float-derived costs may differ there.
		// amd64 and 386 never fuse, and 386's portable exp/log and 4-byte
		// alignment of 64-bit fields reproduce amd64's digests.
		t.Skip("golden digests are recorded on amd64 and checked on 386")
	}
	for _, name := range android.PolicyNames() {
		pol, _ := android.ParsePolicy(name)
		for _, backend := range []string{"flash", "zram"} {
			key := name + "/" + backend
			sys := goldenSession(pol, backend)
			st := sys.VM.Stats()
			if st.SwapIns == 0 || st.SwapOuts == 0 {
				t.Errorf("%s: session swapped %d in / %d out; the pin needs both", key, st.SwapIns, st.SwapOuts)
			}
			ran := map[string]bool{}
			for _, g := range sys.M.GCs {
				ran[g.Kind] = true
			}
			for _, k := range goldenKinds[name] {
				if !ran[k] {
					t.Errorf("%s: no %s collection ran; the pin needs every kind its policy runs", key, k)
				}
			}
			d := Capture(sys)
			got := goldenCell{VMem: d.VMem, Heap: d.Heap, Android: d.Android, GCs: gcDigest(sys.M.GCs)}
			if want := golden[key]; got != want {
				t.Errorf("%s: got %v, want %v", key, got, want)
			}
		}
	}
}
