package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"testing"

	"fleetsim/internal/xrand"
)

// exactQuantile is the reference: nearest-rank quantile over a sorted
// sample.
func exactQuantile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted)-1)))
	return sorted[rank]
}

// TestSketchQuantileErrorBounds streams 1e5 points from a heavy-tailed
// mixture and checks every reported quantile against the exact sorted
// sample: the relative error must stay within the sketch's alpha bound
// (doubled for rank-discretization slack at the extreme tail).
func TestSketchQuantileErrorBounds(t *testing.T) {
	const n = 100000
	rng := xrand.New(7)
	s := NewSketch()
	vals := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		var x float64
		switch i % 10 {
		case 0:
			x = 0 // hot launches that cost nothing
		case 1, 2:
			x = rng.Exp(2000) // cold-launch tail
		default:
			x = rng.LogNormal(4, 0.8) // hot-launch body
		}
		vals = append(vals, x)
		s.Observe(x)
	}
	sort.Float64s(vals)
	if s.Count() != n {
		t.Fatalf("count = %d, want %d", s.Count(), n)
	}
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
		got := s.Quantile(q)
		want := exactQuantile(vals, q)
		if want == 0 {
			if got > sketchMinValue {
				t.Errorf("q=%v: got %v, want 0", q, got)
			}
			continue
		}
		rel := math.Abs(got-want) / want
		if rel > 2*sketchAlpha {
			t.Errorf("q=%v: got %v, want %v (rel err %.4f > %.4f)", q, got, want, rel, 2*sketchAlpha)
		}
	}
	if s.Min() != vals[0] || s.Max() != vals[n-1] {
		t.Errorf("min/max = %v/%v, want %v/%v", s.Min(), s.Max(), vals[0], vals[n-1])
	}
}

// TestSketchMergeOrderInvariance builds 16 shard sketches and merges them
// under random permutations and random tree shapes: every merge order
// must produce byte-identical serialized sketches.
func TestSketchMergeOrderInvariance(t *testing.T) {
	const shards = 16
	rng := xrand.New(11)
	parts := make([]*Sketch, shards)
	for i := range parts {
		parts[i] = NewSketch()
		for j := 0; j < 2000+i*137; j++ {
			parts[i].Observe(rng.LogNormal(3, 1.2))
		}
	}
	marshalMerged := func(order []int) []byte {
		m := NewSketch()
		for _, i := range order {
			m.Merge(parts[i])
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	serial := make([]int, shards)
	for i := range serial {
		serial[i] = i
	}
	want := marshalMerged(serial)
	perm := xrand.New(13)
	for trial := 0; trial < 25; trial++ {
		order := perm.Perm(shards)
		if got := marshalMerged(order); !bytes.Equal(got, want) {
			t.Fatalf("trial %d order %v: serialized sketch differs\n got %s\nwant %s",
				trial, order, got, want)
		}
	}
	// Tree-shaped merge (pairwise fold) must also match the left fold.
	tree := make([]*Sketch, 0, shards)
	for _, p := range parts {
		c := NewSketch()
		c.Merge(p)
		tree = append(tree, c)
	}
	for len(tree) > 1 {
		var next []*Sketch
		for i := 0; i+1 < len(tree); i += 2 {
			tree[i].Merge(tree[i+1])
			next = append(next, tree[i])
		}
		if len(tree)%2 == 1 {
			next = append(next, tree[len(tree)-1])
		}
		tree = next
	}
	if got, err := json.Marshal(tree[0]); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("tree merge differs from serial fold (err %v)", err)
	}
}

// TestSketchJSONRoundTrip checks marshal → unmarshal → marshal is
// byte-identical and that the restored sketch answers identical
// quantiles and keeps merging correctly.
func TestSketchJSONRoundTrip(t *testing.T) {
	rng := xrand.New(5)
	s := NewSketch()
	for i := 0; i < 50000; i++ {
		s.Observe(rng.Exp(120))
	}
	b1, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var r Sketch
	if err := json.Unmarshal(b1, &r); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	b2, err := json.Marshal(&r)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("round trip not byte-identical:\n %s\n %s", b1, b2)
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if s.Quantile(q) != r.Quantile(q) {
			t.Errorf("q=%v: %v vs %v after round trip", q, s.Quantile(q), r.Quantile(q))
		}
	}
	if r.Count() != s.Count() || r.Min() != s.Min() || r.Max() != s.Max() {
		t.Errorf("count/min/max drifted after round trip")
	}
	// Merging a round-tripped shard must equal merging the original.
	a, b := NewSketch(), NewSketch()
	a.Merge(s)
	b.Merge(&r)
	ba, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	if !bytes.Equal(ba, bb) {
		t.Fatalf("merge of round-tripped sketch differs")
	}
}

// TestSketchUnmarshalAlpha pins the wire form's error bound: a journal
// line reads back only at "alpha":0.01 or 0 (the bound unset), and either
// re-marshals to the same bytes; a sketch bucketed at another bound is an
// error, not a silently misread distribution.
func TestSketchUnmarshalAlpha(t *testing.T) {
	s := NewSketch()
	s.ObserveN(0, 3)
	s.Observe(12.5)
	s.Observe(480)
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	field := []byte(`"alpha":0.01,`)
	if !bytes.Contains(want, field) {
		t.Fatalf("wire form lacks %s: %s", field, want)
	}
	for _, alpha := range []string{`"alpha":0,`, `"alpha":0.01,`} {
		var r Sketch
		if err := json.Unmarshal(bytes.Replace(want, field, []byte(alpha), 1), &r); err != nil {
			t.Fatalf("%s: unmarshal: %v", alpha, err)
		}
		got, err := json.Marshal(&r)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", alpha, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: re-marshal differs:\n got %s\nwant %s", alpha, got, want)
		}
	}
	var r Sketch
	if err := json.Unmarshal(bytes.Replace(want, field, []byte(`"alpha":0.02,`), 1), &r); err == nil {
		t.Error("alpha 0.02 accepted")
	}
}

// TestSketchEmptyAndZero pins the edge cases the campaign hits: empty
// sketches merge as identity, and all-zero observations stay exact.
func TestSketchEmptyAndZero(t *testing.T) {
	e := NewSketch()
	if e.Quantile(0.5) != 0 || e.Count() != 0 || e.Min() != 0 || e.Max() != 0 {
		t.Fatalf("empty sketch not all-zero")
	}
	s := NewSketch()
	s.ObserveN(0, 42)
	if got := s.Quantile(0.99); got != 0 {
		t.Fatalf("all-zero q99 = %v", got)
	}
	before, _ := json.Marshal(s)
	s.Merge(NewSketch())
	after, _ := json.Marshal(s)
	if !bytes.Equal(before, after) {
		t.Fatalf("merging an empty sketch changed the receiver")
	}
}

// TestCountsMerge pins the counter set: merge adds per key and the JSON
// encoding is canonical (sorted keys).
func TestCountsMerge(t *testing.T) {
	a := Counts{"kill_psi": 2, "swap_in": 100}
	b := Counts{"swap_in": 23, "kill_oom": 1}
	a.Merge(b)
	want := Counts{"kill_psi": 2, "swap_in": 123, "kill_oom": 1}
	for k, v := range want {
		if a.Get(k) != v {
			t.Errorf("%s = %d, want %d", k, a.Get(k), v)
		}
	}
	j1, _ := json.Marshal(a)
	j2, _ := json.Marshal(Counts{"swap_in": 123, "kill_oom": 1, "kill_psi": 2})
	if !bytes.Equal(j1, j2) {
		t.Fatalf("Counts JSON not canonical: %s vs %s", j1, j2)
	}
}
