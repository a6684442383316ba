// Command benchdiff compares two benchmark streams produced by
// scripts/bench.sh (raw `go test -json` output) and prints a per-benchmark
// delta table: ns/op, B/op and allocs/op, averaged over repetitions when
// the stream was recorded with BENCH_COUNT > 1.
//
// Usage:
//
//	go run ./scripts [flags] OLD.json NEW.json
//
//	-gate regex        also gate: exit 1 if any benchmark matching regex
//	                   regressed in ns/op by more than -max-regress, or
//	                   is missing from either stream
//	-max-regress pct   regression threshold in percent (default 25)
//
// The gate is how CI enforces the hot paths' budgets: the checked-in
// BENCH_5.json is the baseline, the freshly measured stream is the
// candidate, and a >threshold ns/op regression on the gated benchmarks
// fails the build. A gated benchmark found in only one stream fails it
// too, so a renamed, deleted or crashed benchmark cannot drop out of the
// gate unnoticed. Absolute times differ across machines, so the threshold
// is deliberately loose — it catches algorithmic regressions, not noise.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// metrics is one benchmark's averaged results.
type metrics struct {
	nsOp     float64
	bOp      float64
	allocsOp float64
	hasMem   bool
	runs     int
}

// testEvent is the subset of the `go test -json` event we need.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// benchLine matches a go-test benchmark result line, e.g.
// "BenchmarkTraceHotPath-4   2000   447484 ns/op   256 B/op   1 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseStream reads a `go test -json` stream and accumulates benchmark
// results by name (GOMAXPROCS suffix stripped, repetitions averaged).
// Output events are write chunks, not lines — a benchmark's name and its
// numbers usually arrive in separate events — so the stream's output is
// reassembled first and split on real newlines.
func parseStream(path string) (map[string]*metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var text strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev testEvent
		if json.Unmarshal(sc.Bytes(), &ev) != nil || ev.Action != "output" {
			continue
		}
		text.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string]*metrics{}
	for _, line := range strings.Split(text.String(), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name, rest := m[1], m[2]
		e := out[name]
		if e == nil {
			e = &metrics{}
			out[name] = e
		}
		// rest is "<value> <unit>" pairs separated by whitespace.
		fields := strings.Fields(rest)
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				e.nsOp += v
			case "B/op":
				e.bOp += v
				e.hasMem = true
			case "allocs/op":
				e.allocsOp += v
			}
		}
		e.runs++
	}
	for _, e := range out {
		if e.runs > 0 {
			e.nsOp /= float64(e.runs)
			e.bOp /= float64(e.runs)
			e.allocsOp /= float64(e.runs)
		}
	}
	return out, nil
}

func pct(old, new float64) string {
	if old == 0 {
		return "  n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(new-old)/old)
}

// report prints the delta table for every benchmark in either stream to w
// and returns one line per gated benchmark that fails the gate: gated
// names are those gateRe matches (none when gateRe is nil); a gated
// benchmark fails when it is missing from either stream or its ns/op
// regressed by more than maxRegress percent.
func report(w io.Writer, oldM, newM map[string]*metrics, gateRe *regexp.Regexp, maxRegress float64) (failures []string) {
	names := map[string]bool{}
	for n := range oldM {
		names[n] = true
	}
	for n := range newM {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	fmt.Fprintf(w, "%-44s %14s %14s %8s %10s %10s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "B/op", "allocs/op")
	for _, n := range sorted {
		o, hasOld := oldM[n]
		nw, hasNew := newM[n]
		gated := gateRe != nil && gateRe.MatchString(n)
		switch {
		case !hasOld:
			mark := ""
			if gated {
				mark = "  << MISSING"
				failures = append(failures, n+": gated but missing from the old stream")
			}
			fmt.Fprintf(w, "%-44s %14s %14.0f %8s%s\n", n, "-", nw.nsOp, "new", mark)
		case !hasNew:
			mark := ""
			if gated {
				mark = "  << MISSING"
				failures = append(failures, n+": gated but missing from the new stream")
			}
			fmt.Fprintf(w, "%-44s %14.0f %14s %8s%s\n", n, o.nsOp, "-", "gone", mark)
		default:
			mem := ""
			if nw.hasMem {
				mem = fmt.Sprintf(" %10s %10s", pct(o.bOp, nw.bOp), pct(o.allocsOp, nw.allocsOp))
			}
			mark := ""
			if gated {
				if o.nsOp > 0 && 100*(nw.nsOp-o.nsOp)/o.nsOp > maxRegress {
					mark = "  << REGRESSION"
					failures = append(failures, fmt.Sprintf("%s: ns/op regressed %s, more than %.0f%%",
						n, pct(o.nsOp, nw.nsOp), maxRegress))
				} else {
					mark = "  (gated)"
				}
			}
			fmt.Fprintf(w, "%-44s %14.0f %14.0f %8s%s%s\n",
				n, o.nsOp, nw.nsOp, pct(o.nsOp, nw.nsOp), mem, mark)
		}
	}
	return failures
}

func main() {
	gate := flag.String("gate", "", "regex of benchmarks to gate on ns/op regression and presence in both streams")
	maxRegress := flag.Float64("max-regress", 25, "gated ns/op regression threshold, percent")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] OLD.json NEW.json")
		os.Exit(2)
	}
	oldM, err := parseStream(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newM, err := parseStream(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	var gateRe *regexp.Regexp
	if *gate != "" {
		gateRe, err = regexp.Compile(*gate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff: bad -gate:", err)
			os.Exit(2)
		}
	}
	failures := report(os.Stdout, oldM, newM, gateRe, *maxRegress)
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "benchdiff:", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}
