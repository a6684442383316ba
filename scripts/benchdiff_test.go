package main

import (
	"io"
	"regexp"
	"strings"
	"testing"
)

func TestReportGate(t *testing.T) {
	gate := regexp.MustCompile(`TraceHotPath|ZramSwapOut`)
	base := func() map[string]*metrics {
		return map[string]*metrics{
			"BenchmarkTraceHotPath": {nsOp: 1000, runs: 1},
			"BenchmarkZramSwapOut":  {nsOp: 100, runs: 1},
			"BenchmarkServiceJob":   {nsOp: 50, runs: 1},
		}
	}
	cases := []struct {
		name string
		edit func(old, new map[string]*metrics)
		gate *regexp.Regexp
		want []string // substrings of the failures, in order
	}{
		{"equal", func(_, _ map[string]*metrics) {}, gate, nil},
		{"within threshold", func(_, nw map[string]*metrics) { nw["BenchmarkTraceHotPath"].nsOp = 1200 }, gate, nil},
		{"regressed", func(_, nw map[string]*metrics) { nw["BenchmarkTraceHotPath"].nsOp = 1300 },
			gate, []string{"BenchmarkTraceHotPath: ns/op regressed +30.0%"}},
		{"ungated regression", func(_, nw map[string]*metrics) { nw["BenchmarkServiceJob"].nsOp = 500 }, gate, nil},
		{"gated gone", func(_, nw map[string]*metrics) { delete(nw, "BenchmarkZramSwapOut") },
			gate, []string{"BenchmarkZramSwapOut: gated but missing from the new stream"}},
		{"gated new", func(old, _ map[string]*metrics) { delete(old, "BenchmarkZramSwapOut") },
			gate, []string{"BenchmarkZramSwapOut: gated but missing from the old stream"}},
		{"gated renamed", func(_, nw map[string]*metrics) {
			nw["BenchmarkTraceHotPathDFS"] = nw["BenchmarkTraceHotPath"]
			delete(nw, "BenchmarkTraceHotPath")
		}, gate, []string{
			"BenchmarkTraceHotPath: gated but missing from the new stream",
			"BenchmarkTraceHotPathDFS: gated but missing from the old stream",
		}},
		{"ungated gone", func(_, nw map[string]*metrics) { delete(nw, "BenchmarkServiceJob") }, gate, nil},
		{"no gate", func(old, nw map[string]*metrics) {
			delete(nw, "BenchmarkZramSwapOut")
			nw["BenchmarkTraceHotPath"].nsOp = 5000
		}, nil, nil},
	}
	for _, c := range cases {
		old, nw := base(), base()
		c.edit(old, nw)
		got := report(io.Discard, old, nw, c.gate, 25)
		if len(got) != len(c.want) {
			t.Errorf("%s: failures %q, want %d", c.name, got, len(c.want))
			continue
		}
		for i, w := range c.want {
			if !strings.Contains(got[i], w) {
				t.Errorf("%s: failure %d = %q, want it to contain %q", c.name, i, got[i], w)
			}
		}
	}
}
