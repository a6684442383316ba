package snapshot

import (
	"fmt"
	"strings"
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/simclock"
)

// recordEvery is the virtual-time period at which a Recorder samples.
const recordEvery = 500 * time.Millisecond

// Recorder samples SystemDigests at a fixed virtual-time period,
// recordEvery; the zero Recorder is ready to Attach. It rides the
// simulation clock as a self-rescheduling event; capturing mutates
// nothing, and because clock tie-breaks are by schedule order (seq), the
// extra events shift later seq numbers uniformly without reordering the
// simulation's own same-instant events — an attached recorder observes a
// run without perturbing it.
type Recorder struct {
	// Digests accumulates the samples in tick order.
	Digests []SystemDigest

	sys *android.System
}

// Attach schedules the recorder's first sample on the system's clock. Call
// it once, before driving the workload; the recorder keeps rescheduling
// itself for as long as the simulation runs.
func (r *Recorder) Attach(sys *android.System) {
	r.sys = sys
	sys.Clock.ScheduleAfter(recordEvery, "snapshot-digest", r.tick)
}

func (r *Recorder) tick(c *simclock.Clock) {
	d := Capture(r.sys)
	d.Tick = len(r.Digests) + 1
	r.Digests = append(r.Digests, d)
	c.ScheduleAfter(recordEvery, "snapshot-digest", r.tick)
}

// Divergence localizes where two same-seed replays first disagreed.
type Divergence struct {
	// Tick is the first divergent sample's ordinal (1-based).
	Tick int
	// At is the virtual time of that sample in replay A.
	At time.Duration
	// Subsystem names the first digest that differed, in canonical check
	// order: "vmem", "heap", "android" — or "schedule" when the samples'
	// timestamps or the sequence lengths themselves diverged (the event
	// queue itself drifted).
	Subsystem string
	// A and B are the divergent samples (B is zero when one replay simply
	// ran out of samples).
	A, B SystemDigest
}

// String renders a one-line bisection report.
func (d *Divergence) String() string {
	return fmt.Sprintf("first divergence at tick %d (t=%v): %s digest differs", d.Tick, d.At, d.Subsystem)
}

// Report renders a full bisection report: the divergent tick, the
// subsystem attribution, and both replays' digests at that tick.
func (d *Divergence) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", d.String())
	fmt.Fprintf(&b, "  replay A: tick=%d t=%v vmem=%016x heap=%016x android=%016x\n",
		d.A.Tick, d.A.At, uint64(d.A.VMem), uint64(d.A.Heap), uint64(d.A.Android))
	fmt.Fprintf(&b, "  replay B: tick=%d t=%v vmem=%016x heap=%016x android=%016x\n",
		d.B.Tick, d.B.At, uint64(d.B.VMem), uint64(d.B.Heap), uint64(d.B.Android))
	return b.String()
}

// Bisect scans two replays' digest sequences for the first divergent tick
// and attributes it to the first differing subsystem. Returns nil when the
// sequences are identical. Because each sample is a full-state digest, a
// linear scan for the first mismatch IS the bisection: state is
// append-only-causal, so the first differing sample bounds the divergence
// to the preceding interval exactly.
func Bisect(a, b []SystemDigest) *Divergence {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			continue
		}
		d := &Divergence{Tick: a[i].Tick, At: a[i].At, A: a[i], B: b[i]}
		switch {
		case a[i].At != b[i].At:
			d.Subsystem = "schedule"
		case a[i].VMem != b[i].VMem:
			d.Subsystem = "vmem"
		case a[i].Heap != b[i].Heap:
			d.Subsystem = "heap"
		case a[i].Android != b[i].Android:
			d.Subsystem = "android"
		default:
			d.Subsystem = "schedule"
		}
		return d
	}
	if len(a) != len(b) {
		d := &Divergence{Tick: n + 1, Subsystem: "schedule"}
		if len(a) > n {
			d.A = a[n]
			d.At = a[n].At
		} else {
			d.B = b[n]
			d.At = b[n].At
		}
		return d
	}
	return nil
}
