package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical outputs from different seeds", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Fork(1)
	parent2 := New(7)
	c2 := parent2.Fork(2)
	// Children with different ids from identical parents should differ.
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("forked streams look correlated: %d matches", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	f := func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(9)
	var sum, sq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(13)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(5, 1.5); v <= 0 {
			t.Fatalf("LogNormal produced %v", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(17)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Exp(10)
	}
	mean := sum / n
	if math.Abs(mean-10) > 0.3 {
		t.Errorf("exp mean = %v, want ~10", mean)
	}
}

func TestZipfSkewsSmall(t *testing.T) {
	r := New(21)
	const n = 100
	counts := make([]int, n)
	for i := 0; i < 100000; i++ {
		v := r.Zipf(n, 1.2)
		if v < 0 || v >= n {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[n-1] {
		t.Errorf("Zipf not skewed: counts[0]=%d counts[last]=%d", counts[0], counts[n-1])
	}
	// Rank 0 should dominate: expect at least 10x the tail rank.
	if counts[0] < 10*counts[n-1] {
		t.Errorf("Zipf skew too weak: %d vs %d", counts[0], counts[n-1])
	}
}

func TestZipfDegenerate(t *testing.T) {
	r := New(23)
	if r.Zipf(1, 1.5) != 0 {
		t.Error("Zipf(1) must be 0")
	}
	if r.Zipf(0, 1.5) != 0 {
		t.Error("Zipf(0) must be 0")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(29)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(37)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", frac)
	}
}

// refZipf is the rejection-inversion sampler as it stood before Zipf
// tabulated its bounds and acceptance thresholds: every draw evaluates
// them afresh. TestZipfStreamMatchesReference pins Zipf to it bit for bit.
func refZipf(r *Rand, n int, s float64) int {
	if n <= 1 {
		return 0
	}
	v := 1.0
	q := s
	oneMinusQ := 1 - q
	oneMinusQInv := 1 / oneMinusQ
	hx0 := refH(0.5, oneMinusQ, oneMinusQInv) - 1
	hn := refH(float64(n)+0.5, oneMinusQ, oneMinusQInv)
	for {
		u := hn + r.Float64()*(hx0-hn)
		x := math.Exp(oneMinusQInv*math.Log(oneMinusQ*u)) - 1
		k := math.Floor(x + 0.5)
		if k < 0 {
			k = 0
		} else if k > float64(n-1) {
			k = float64(n - 1)
		}
		if u >= refH(k+0.5, oneMinusQ, oneMinusQInv)-math.Exp(-q*math.Log(k+v)) {
			return int(k)
		}
	}
}

func refH(x, oneMinusQ, oneMinusQInv float64) float64 {
	return math.Exp(oneMinusQ*math.Log(1+x)) * oneMinusQInv
}

// TestZipfStreamMatchesReference draws over a million Zipf variates from
// twin Rands, one through Zipf and one through refZipf, and requires every
// draw to match: n = 1 and 2, an n growing one at a time past 4096, and
// random n up to 10000, with skews 1.2, 1.3 and 2.0 interleaved so the
// per-skew tables fill and grow side by side.
func TestZipfStreamMatchesReference(t *testing.T) {
	got, want := New(99), New(99)
	pick := New(5)
	skews := []float64{1.2, 1.3, 2.0}
	draws := 0
	check := func(n int, s float64) {
		t.Helper()
		g, w := got.Zipf(n, s), refZipf(want, n, s)
		if g != w {
			t.Fatalf("draw %d: Zipf(%d, %g) = %d, reference %d", draws, n, s, g, w)
		}
		draws++
	}
	for i := 0; i < 20000; i++ {
		check(1+i%2, skews[i%len(skews)])
	}
	for n := 2; n <= 6000; n++ {
		for i := 0; i < 30; i++ {
			check(n, skews[(n+i)%len(skews)])
		}
	}
	for draws < 1_100_000 {
		check(1+pick.Intn(10000), skews[pick.Intn(len(skews))])
	}
	if g, w := got.Uint64(), want.Uint64(); g != w {
		t.Fatalf("streams diverged after %d draws: %#x vs %#x", draws, g, w)
	}
}
