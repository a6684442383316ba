// Mergeable streaming reductions for fleet-scale aggregation: a
// fixed-log-bucket percentile sketch and a string-keyed counter set.
//
// The population campaigns shard a fleet of simulated devices across
// workers; each worker reduces its slice into one Sketch per metric and
// the coordinator merges the shards. The merge therefore has to be exactly
// associative and commutative — not approximately, *bitwise*: the campaign
// digest is computed over the serialized aggregate and must come out
// identical whether the shards merged serially, in parallel arrival order,
// or out of a checkpoint journal. That rules out centroid-based t-digests
// (centroid positions depend on merge order) and floating-point running
// sums (float addition is not associative). A DDSketch-style logarithmic
// bucket layout with int64 counts gives the guarantee for free: merging is
// integer addition per bucket, and ints commute.
//
// Accuracy: a value x > 0 lands in bucket ⌈log_γ x⌉ with γ = (1+α)/(1−α)
// and α = 1%, so every bucket's midpoint estimate is within relative
// error α of any value in the bucket. Quantile queries walk the (sorted)
// buckets to the target rank and return the bucket estimate, clamped to
// the observed [min, max].
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// sketchAlpha is every Sketch's relative-error bound: each reported
// quantile is within 1% of the true value's magnitude.
const sketchAlpha = 0.01

// sketchGamma is the bucket growth factor γ = (1+α)/(1−α) and
// sketchLogGamma its natural log. They are float64 variables rather than
// constants so that expressions such as γ+1 round in float64 arithmetic,
// not in Go's exact constant arithmetic.
var (
	sketchGamma    = (1 + sketchAlpha) / (1 - sketchAlpha)
	sketchLogGamma = math.Log(sketchGamma)
)

// sketchMinValue is the smallest indexable observation; values in
// (0, sketchMinValue] fold into the zero bucket rather than producing
// very negative bucket indices. Latencies are milliseconds, so a
// nanosecond floor is far below anything observable.
const sketchMinValue = 1e-6

// Sketch is a mergeable log-bucket percentile sketch for non-negative
// observations (latency ms, pause ms, byte counts). The zero value is not
// ready to use; start with NewSketch.
type Sketch struct {
	zero    int64 // observations ≤ sketchMinValue
	total   int64
	min     float64
	max     float64
	buckets map[int]int64
}

// NewSketch returns an empty sketch.
func NewSketch() *Sketch {
	return &Sketch{
		min:     math.Inf(1),
		max:     math.Inf(-1),
		buckets: make(map[int]int64),
	}
}

// Observe records one observation. Negative values clamp to zero (the
// sketch carries latencies and counts; a negative input is a caller bug
// the sketch tolerates rather than corrupting its index math).
func (s *Sketch) Observe(x float64) { s.ObserveN(x, 1) }

// ObserveN records n identical observations.
func (s *Sketch) ObserveN(x float64, n int64) {
	if n <= 0 {
		return
	}
	if x < 0 || math.IsNaN(x) {
		x = 0
	}
	s.total += n
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	if x <= sketchMinValue {
		s.zero += n
		return
	}
	s.buckets[s.index(x)] += n
}

// index maps a positive value to its bucket: the smallest i with γ^i ≥ x.
func (s *Sketch) index(x float64) int {
	return int(math.Ceil(math.Log(x) / sketchLogGamma))
}

// value is the midpoint estimate of bucket i: 2γ^i/(γ+1), within relative
// error α of every value in (γ^(i-1), γ^i].
func (s *Sketch) value(i int) float64 {
	return 2 * math.Pow(sketchGamma, float64(i)) / (sketchGamma + 1)
}

// Count returns the number of observations.
func (s *Sketch) Count() int64 { return s.total }

// Min and Max return the observed extremes (0 when empty).
func (s *Sketch) Min() float64 {
	if s.total == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 when empty).
func (s *Sketch) Max() float64 {
	if s.total == 0 {
		return 0
	}
	return s.max
}

// Merge folds o into s. Merging is exactly associative and commutative
// (integer adds plus min/max), so any merge tree over the same shard set
// yields an identical sketch — the guarantee shard-parallel campaigns rely
// on.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.total == 0 {
		return
	}
	s.total += o.total
	s.zero += o.zero
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	for i, n := range o.buckets {
		s.buckets[i] += n
	}
}

// Quantile returns the estimated q-quantile (0 ≤ q ≤ 1) with relative
// error at most α, or 0 for an empty sketch.
func (s *Sketch) Quantile(q float64) float64 {
	if s.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.total-1)))
	if rank < s.zero {
		return s.clamp(0)
	}
	idx := make([]int, 0, len(s.buckets))
	for i := range s.buckets {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	cum := s.zero
	for _, i := range idx {
		cum += s.buckets[i]
		if cum > rank {
			return s.clamp(s.value(i))
		}
	}
	return s.clamp(s.max)
}

// Each visits the sketch's occupied buckets in ascending value order as
// (estimate, count) pairs — the zero bucket first, then the log buckets'
// midpoint estimates. Re-bucketing exporters (telemetry histograms) use
// this to replay the distribution without per-observation retention.
func (s *Sketch) Each(fn func(value float64, count int64)) {
	if s.zero > 0 {
		fn(0, s.zero)
	}
	idx := make([]int, 0, len(s.buckets))
	for i := range s.buckets {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		fn(s.clamp(s.value(i)), s.buckets[i])
	}
}

// clamp bounds an estimate by the observed extremes, so reported
// quantiles never leave the data's range.
func (s *Sketch) clamp(v float64) float64 {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}

// sketchJSON is the wire form: sparse sorted buckets with int64 counts.
// Counts serialize exactly; min/max round-trip exactly through Go's
// shortest-representation float encoding — so marshal∘unmarshal∘marshal
// is byte-identical, which the checkpoint journal and the campaign digest
// depend on.
type sketchJSON struct {
	Alpha float64 `json:"alpha"`
	Zero  int64   `json:"zero"`
	Total int64   `json:"total"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Idx   []int   `json:"idx"`
	N     []int64 `json:"n"`
}

// MarshalJSON encodes the sketch with buckets in ascending index order.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	w := sketchJSON{Alpha: sketchAlpha, Zero: s.zero, Total: s.total}
	if s.total > 0 {
		w.Min, w.Max = s.min, s.max
	}
	w.Idx = make([]int, 0, len(s.buckets))
	for i := range s.buckets {
		w.Idx = append(w.Idx, i)
	}
	sort.Ints(w.Idx)
	w.N = make([]int64, len(w.Idx))
	for k, i := range w.Idx {
		w.N[k] = s.buckets[i]
	}
	return json.Marshal(w)
}

// UnmarshalJSON restores a sketch from its wire form. The bucket indices
// are only meaningful at sketchAlpha, so any other bound is an error; an
// absent (zero) bound reads as sketchAlpha.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	var w sketchJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if len(w.Idx) != len(w.N) {
		return fmt.Errorf("metrics: sketch idx/n length mismatch (%d vs %d)", len(w.Idx), len(w.N))
	}
	if w.Alpha != 0 && w.Alpha != sketchAlpha {
		return fmt.Errorf("metrics: sketch alpha %v, want %v", w.Alpha, sketchAlpha)
	}
	*s = *NewSketch()
	s.zero = w.Zero
	s.total = w.Total
	if s.total > 0 {
		s.min, s.max = w.Min, w.Max
	}
	for k, i := range w.Idx {
		s.buckets[i] = w.N[k]
	}
	return nil
}

// Counts is a mergeable set of named int64 counters. Merging adds
// per-key, so — like the Sketch — any merge order over the same shards
// yields an identical result, and encoding/json's sorted map keys make
// the serialization canonical.
type Counts map[string]int64

// Add increments counter k by n.
func (c Counts) Add(k string, n int64) { c[k] += n }

// Get returns counter k (0 when absent).
func (c Counts) Get(k string) int64 { return c[k] }

// Merge folds o into c.
func (c Counts) Merge(o Counts) {
	for k, n := range o {
		c[k] += n
	}
}
