package trace

import (
	"strings"
	"testing"
	"time"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Emit(Event{Kind: KindGC})
	if l.Len() != 0 || l.Events() != nil || l.Filter(KindGC, "") != nil {
		t.Error("nil log should drop everything")
	}
	if !strings.HasPrefix(l.CSV(), "time_ms,") {
		t.Error("nil CSV missing header")
	}
}

func TestEmitAndFilter(t *testing.T) {
	l := New()
	l.Emit(Event{At: time.Second, Kind: KindLaunch, App: "A", Detail: "hot", Dur: 100 * time.Millisecond})
	l.Emit(Event{At: 2 * time.Second, Kind: KindGC, App: "A", Detail: "major", N: 500})
	l.Emit(Event{At: 3 * time.Second, Kind: KindLaunch, App: "B", Detail: "cold"})
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	launches := l.Filter(KindLaunch, "")
	if len(launches) != 2 {
		t.Errorf("launches = %d", len(launches))
	}
	aLaunches := l.Filter(KindLaunch, "A")
	if len(aLaunches) != 1 || aLaunches[0].Detail != "hot" {
		t.Errorf("A launches = %v", aLaunches)
	}
}

func TestCSVFormat(t *testing.T) {
	l := New()
	l.Emit(Event{At: 1500 * time.Millisecond, Kind: KindGC, App: "A", Detail: "bgc", Dur: 20 * time.Millisecond, N: 42})
	csv := l.CSV()
	if !strings.Contains(csv, "1500.000,gc,A,bgc,20.000,42") {
		t.Errorf("csv = %q", csv)
	}
}
