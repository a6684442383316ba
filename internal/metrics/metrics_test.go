package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"fleetsim/internal/xrand"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if !almost(s.Mean(), 5, 1e-9) {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	// Sample (n-1) std dev of this classic dataset is ~2.138.
	if !almost(s.StdDev(), 2.13809, 1e-4) {
		t.Errorf("StdDev = %v", s.StdDev())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.StdDev() != 0 || s.N() != 0 {
		t.Error("empty summary should be all zeros")
	}
}

func TestSummaryMatchesSample(t *testing.T) {
	r := xrand.New(99)
	f := func(seed uint32) bool {
		var sum Summary
		var smp Sample
		n := 2 + int(seed%100)
		for i := 0; i < n; i++ {
			x := r.Float64() * 1000
			sum.Add(x)
			smp.Add(x)
		}
		return almost(sum.Mean(), smp.Mean(), 1e-6) && almost(sum.StdDev(), smp.StdDev(), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("p100 = %v", got)
	}
	if got := s.Median(); !almost(got, 50.5, 1e-9) {
		t.Errorf("median = %v", got)
	}
	if got := s.Percentile(90); !almost(got, 90.1, 1e-9) {
		t.Errorf("p90 = %v", got)
	}
}

func TestPercentileMonotonic(t *testing.T) {
	r := xrand.New(7)
	var s Sample
	for i := 0; i < 500; i++ {
		s.Add(r.Float64() * 100)
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 2.5 {
		v := s.Percentile(p)
		if v < prev {
			t.Fatalf("percentile not monotonic at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestPercentileEmptyAndSingle(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 {
		t.Error("empty sample percentile should be 0")
	}
	s.Add(42)
	for _, p := range []float64{0, 10, 50, 90, 100} {
		if s.Percentile(p) != 42 {
			t.Errorf("singleton percentile(%v) = %v", p, s.Percentile(p))
		}
	}
}

func TestCDF(t *testing.T) {
	var s Sample
	s.AddAll(3, 1, 2, 4)
	vs, fs := s.CDF()
	if vs[0] != 1 || vs[3] != 4 {
		t.Errorf("CDF values not sorted: %v", vs)
	}
	if fs[3] != 1.0 || !almost(fs[0], 0.25, 1e-9) {
		t.Errorf("CDF fractions wrong: %v", fs)
	}
	if got := s.CDFAt(2); !almost(got, 0.5, 1e-9) {
		t.Errorf("CDFAt(2) = %v", got)
	}
	if got := s.CDFAt(0.5); got != 0 {
		t.Errorf("CDFAt(0.5) = %v", got)
	}
	if got := s.CDFAt(100); got != 1 {
		t.Errorf("CDFAt(100) = %v", got)
	}
}

func TestSampleAddAfterSortedRead(t *testing.T) {
	var s Sample
	s.AddAll(5, 1)
	_ = s.Median() // forces sort
	s.Add(3)
	vs := s.Values()
	if vs[0] != 1 || vs[1] != 3 || vs[2] != 5 {
		t.Errorf("values after re-add: %v", vs)
	}
}

func TestTimeSeriesCSV(t *testing.T) {
	var ts TimeSeries
	ts.Add(1, 2)
	ts.Add(3, 4)
	got := ts.CSV("t,v")
	want := "t,v\n1.0000,2.0000\n3.0000,4.0000\n"
	if got != want {
		t.Errorf("CSV = %q", got)
	}
	if ts.Len() != 2 {
		t.Errorf("Len = %d", ts.Len())
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(300, 100); !almost(got, 3, 1e-9) {
		t.Errorf("Speedup = %v", got)
	}
	if Speedup(300, 0) != 0 {
		t.Error("Speedup by zero should be 0")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 100}); !almost(got, 10, 1e-9) {
		t.Errorf("GeoMean = %v", got)
	}
	if got := GeoMean([]float64{2, 0, 8, -3}); !almost(got, 4, 1e-9) {
		t.Errorf("GeoMean ignoring non-positive = %v", got)
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean of nothing should be 0")
	}
}

func TestPearson(t *testing.T) {
	if got := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); !almost(got, 1, 1e-9) {
		t.Errorf("perfect correlation = %v", got)
	}
	if got := Pearson([]float64{1, 2, 3}, []float64{6, 4, 2}); !almost(got, -1, 1e-9) {
		t.Errorf("perfect anticorrelation = %v", got)
	}
	if Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Error("degenerate x should be 0")
	}
	if Pearson([]float64{1}, []float64{1}) != 0 {
		t.Error("too-short input should be 0")
	}
	if Pearson([]float64{1, 2}, []float64{1, 2, 3}) != 0 {
		t.Error("mismatched lengths should be 0")
	}
}
