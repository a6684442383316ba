// Package trace is the simulator's systrace analogue: a structured event
// log the system layer emits launches, collections, kills and swap-advice
// events into. The paper's artifact drives Perfetto over Android's system
// trace for exactly these event classes (§B.5.3); here the log renders
// as CSV or as Chrome trace-event JSON (chrome.go) and can be filtered
// programmatically.
package trace

import (
	"fmt"
	"strings"
	"time"
)

// Kind classifies an event.
type Kind string

// Event kinds emitted by the android layer.
const (
	// KindLaunch is any app launch; Detail is "hot" or "cold".
	KindLaunch Kind = "launch"
	// KindGC is one garbage collection; Detail is the collector kind.
	KindGC Kind = "gc"
	// KindKill is a process kill; Detail is the cause: "hard", "psi" or
	// "swam" (lmkd), "oom" (allocation failure), "fault" or "crash"
	// (injected faults).
	KindKill Kind = "kill"
	// KindAdvise is a madvise call; Detail is "cold" or "hot".
	KindAdvise Kind = "advise"
	// KindState is a lifecycle transition; Detail is the new state.
	KindState Kind = "state"
)

// Event is one timestamped record.
type Event struct {
	// At is the virtual time of the event.
	At time.Duration `json:"at_ns"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// App is the app the event belongs to ("" for system-wide events).
	App string `json:"app,omitempty"`
	// Detail refines the kind (see the Kind constants).
	Detail string `json:"detail,omitempty"`
	// Dur is the event's duration where meaningful (launch time, GC
	// pause+stall).
	Dur time.Duration `json:"dur_ns,omitempty"`
	// N is a kind-specific count (objects traced for gc events, pages for
	// advise events).
	N int64 `json:"n,omitempty"`
}

// Log collects events. A nil *Log is valid and drops everything, so
// emitters never need a nil check.
type Log struct {
	events []Event
}

// New returns an empty log.
func New() *Log { return &Log{} }

// Emit appends an event. Safe on a nil log.
func (l *Log) Emit(e Event) {
	if l == nil {
		return
	}
	l.events = append(l.events, e)
}

// Len returns the number of recorded events (0 on nil).
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.events)
}

// Events returns the recorded events in emission order.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	return l.events
}

// Filter returns the events matching kind (and app, when non-empty).
func (l *Log) Filter(kind Kind, app string) []Event {
	if l == nil {
		return nil
	}
	var out []Event
	for _, e := range l.events {
		if e.Kind == kind && (app == "" || e.App == app) {
			out = append(out, e)
		}
	}
	return out
}

// CSV renders the log as CSV with millisecond timestamps.
func (l *Log) CSV() string {
	var b strings.Builder
	b.WriteString("time_ms,kind,app,detail,dur_ms,n\n")
	if l == nil {
		return b.String()
	}
	for _, e := range l.events {
		fmt.Fprintf(&b, "%.3f,%s,%s,%s,%.3f,%d\n",
			float64(e.At)/float64(time.Millisecond), e.Kind, e.App, e.Detail,
			float64(e.Dur)/float64(time.Millisecond), e.N)
	}
	return b.String()
}
