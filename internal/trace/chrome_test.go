package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// chromeTestLog covers every export path: cold and hot launch spans,
// overlapping GC spans on one app (the clamping case), a kill instant, an
// advise instant on the memory lane, lifecycle instants, and a
// system-lane event with no app.
func chromeTestLog() *Log {
	l := New()
	l.Emit(Event{At: 0, Kind: KindState, App: "app.maps", Detail: "foreground"})
	l.Emit(Event{At: 1 * time.Millisecond, Kind: KindLaunch, App: "app.maps", Detail: "cold", Dur: 120 * time.Millisecond})
	l.Emit(Event{At: 50 * time.Millisecond, Kind: KindGC, App: "app.maps", Detail: "concurrent", Dur: 8 * time.Millisecond, N: 1000})
	// Starts before the previous collection's pause ends: must clamp.
	l.Emit(Event{At: 55 * time.Millisecond, Kind: KindGC, App: "app.maps", Detail: "concurrent", Dur: 4 * time.Millisecond, N: 400})
	l.Emit(Event{At: 130 * time.Millisecond, Kind: KindLaunch, App: "app.chat", Detail: "hot", Dur: 40 * time.Millisecond})
	l.Emit(Event{At: 180 * time.Millisecond, Kind: KindAdvise, App: "app.maps", Detail: "cold", N: 512})
	l.Emit(Event{At: 200 * time.Millisecond, Kind: KindKill, App: "app.maps", Detail: "psi"})
	l.Emit(Event{At: 210 * time.Millisecond, Kind: KindState, Detail: "pressure"})
	return l
}

func TestChromeGolden(t *testing.T) {
	got, err := chromeTestLog().ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("export drifted from golden (run with -update if intended)\ngot:\n%s", got)
	}
	if err := ValidateChrome(got); err != nil {
		t.Fatalf("golden export fails validation: %v", err)
	}
}

func TestChromeStructure(t *testing.T) {
	data, err := chromeTestLog().ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", tr.DisplayTimeUnit)
	}

	// Per-lane clamping: the second GC span must begin exactly where the
	// first ends (58 ms), not at its emission time (55 ms).
	var gcBegins []float64
	threads := map[string]bool{}
	for _, e := range tr.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			threads[e.Args["name"].(string)] = true
		}
		if e.Ph == "B" && e.Name == "gc:concurrent" {
			gcBegins = append(gcBegins, e.TS)
		}
	}
	if len(gcBegins) != 2 || gcBegins[0] != 50000 || gcBegins[1] != 58000 {
		t.Fatalf("gc span starts = %v, want [50000 58000] µs", gcBegins)
	}
	for _, name := range []string{"system", "app.maps", "app.maps/mem", "app.chat", "app.chat/mem"} {
		if !threads[name] {
			t.Fatalf("missing thread_name metadata for lane %q (have %v)", name, threads)
		}
	}
}

func TestChromeNilAndEmpty(t *testing.T) {
	for _, l := range []*Log{nil, New()} {
		data, err := l.ChromeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateChrome(data); err != nil {
			t.Fatalf("empty trace invalid: %v", err)
		}
	}
}

func TestValidateChromeRejects(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"traceEvents":`,
		"unopened E":    `{"traceEvents":[{"name":"x","ph":"E","ts":1,"pid":1,"tid":1}]}`,
		"unclosed B":    `{"traceEvents":[{"name":"x","ph":"B","ts":1,"pid":1,"tid":1}]}`,
		"name mismatch": `{"traceEvents":[{"name":"x","ph":"B","ts":1,"pid":1,"tid":1},{"name":"y","ph":"E","ts":2,"pid":1,"tid":1}]}`,
		"ts regression": `{"traceEvents":[{"name":"a","ph":"i","ts":5,"pid":1,"tid":1},{"name":"b","ph":"i","ts":4,"pid":1,"tid":1}]}`,
	}
	for label, raw := range cases {
		if err := ValidateChrome([]byte(raw)); err == nil {
			t.Errorf("%s: ValidateChrome accepted %s", label, raw)
		} else if label != "not json" && !strings.Contains(err.Error(), "trace:") {
			t.Errorf("%s: unexpected error text %v", label, err)
		}
	}
}
