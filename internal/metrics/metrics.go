// Package metrics provides the statistics the evaluation harness reports:
// streaming summaries, exact-percentile samples and CDFs, mergeable
// percentile sketches and time series. Everything stores float64s; callers
// convert durations to milliseconds (the paper's unit) at the edge.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary accumulates count/mean/variance/min/max online (Welford).
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the running mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// Sum returns mean*n.
func (s *Summary) Sum() float64 { return s.mean * float64(s.n) }

// StdDev returns the sample standard deviation (0 for n < 2).
func (s *Summary) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f min=%.2f max=%.2f", s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// Sample keeps every observation for exact percentiles and CDFs. The
// evaluation collects tens of observations per cell, so exactness is cheap.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddAll records many observations.
func (s *Sample) AddAll(xs ...float64) {
	s.xs = append(s.xs, xs...)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns the observations sorted ascending. The returned slice is
// owned by the Sample; callers must not modify it.
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	return s.xs
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// MarshalJSON encodes the observations as a plain JSON array. Go's float64
// encoding is shortest-round-trip, so a marshal/unmarshal cycle reproduces
// every observation bit for bit — checkpointed experiment legs resume
// byte-identical to fresh runs.
func (s *Sample) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.xs)
}

// UnmarshalJSON restores a Sample from its array encoding.
func (s *Sample) UnmarshalJSON(b []byte) error {
	s.xs = nil
	s.sorted = false
	return json.Unmarshal(b, &s.xs)
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. Returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Mean returns the arithmetic mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// CDF returns (values, cumulative fractions) suitable for plotting the
// paper's CDF figures: fraction[i] is the proportion of observations ≤
// value[i].
func (s *Sample) CDF() (values, fractions []float64) {
	s.ensureSorted()
	n := len(s.xs)
	values = make([]float64, n)
	fractions = make([]float64, n)
	copy(values, s.xs)
	for i := range values {
		fractions[i] = float64(i+1) / float64(n)
	}
	return values, fractions
}

// CDFAt returns the empirical fraction of observations ≤ x.
func (s *Sample) CDFAt(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	i := sort.SearchFloat64s(s.xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(s.xs))
}

// TimeSeries records (t, value) points, for the paper's timeline figures.
type TimeSeries struct {
	T []float64
	V []float64
}

// Add appends a point.
func (ts *TimeSeries) Add(t, v float64) {
	ts.T = append(ts.T, t)
	ts.V = append(ts.V, v)
}

// Len returns the number of points.
func (ts *TimeSeries) Len() int { return len(ts.T) }

// CSV renders the series as "t,v" lines with the given header.
func (ts *TimeSeries) CSV(header string) string {
	var b strings.Builder
	b.WriteString(header)
	b.WriteByte('\n')
	for i := range ts.T {
		fmt.Fprintf(&b, "%.4f,%.4f\n", ts.T[i], ts.V[i])
	}
	return b.String()
}

// Speedup returns base/x, the paper's convention ("Fleet is 1.59× faster"
// means androidTime/fleetTime). Returns 0 when x is 0.
func Speedup(base, x float64) float64 {
	if x == 0 {
		return 0
	}
	return base / x
}

// GeoMean returns the geometric mean of xs, ignoring non-positive entries.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Pearson returns the Pearson correlation coefficient of the paired
// samples (0 when degenerate).
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
