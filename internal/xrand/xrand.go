// Package xrand implements the deterministic pseudo-random source used by
// every workload generator in the simulator. It is a small, explicit
// xoshiro256** implementation so that results are bit-identical across Go
// releases and platforms (math/rand's default source has changed between
// releases, which would silently change experiment outputs).
package xrand

import "math"

// Rand is a deterministic random source. It is NOT safe for concurrent use;
// each simulated component owns its own Rand derived from a master seed.
type Rand struct {
	s [4]uint64
	// ztabs holds one Zipf acceptance table per skew drawn from this
	// Rand (a handful at most), never evicted. Purely a cache of
	// pure-function values: the draw stream is bit-identical to
	// evaluating them per draw.
	ztabs []zipfTable
}

// zipfTable caches, for one skew s, the per-rank values of the Zipf
// rejection sampler: ent[k].h = helperH(k+0.5) and ent[k].thr = ent[k].h -
// exp(-s·log(k+1)), the acceptance threshold of rank k. Entries fill the
// first time a draw needs them; h == 0 marks an empty entry, since helperH
// is never 0 at a finite argument.
type zipfTable struct {
	s   float64
	ent []zipfEntry
}

type zipfEntry struct{ h, thr float64 }

// splitmix64 expands a 64-bit seed into a well-distributed stream; it is the
// recommended seeding procedure for the xoshiro family.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Rand seeded from seed. Two Rands with the same seed produce
// identical streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// A state of all zeros would be absorbing; splitmix64 cannot produce
	// four zero outputs in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Fork derives an independent child stream labelled by id. Children with
// different ids are statistically independent of each other and the parent.
func (r *Rand) Fork(id uint64) *Rand {
	return New(r.Uint64() ^ (id+1)*0x9e3779b97f4a7c15)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1). The outer conversion
// keeps the compiler from fusing the scaling into a caller's add.
func (r *Rand) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard normal variate (Box–Muller, polar form).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns exp(N(mu, sigma)); used for object-size distributions.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + float64(sigma*r.NormFloat64()))
}

// Exp returns an exponential variate with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Zipf draws from a Zipf-like distribution over [0, n) with skew s > 1 using
// rejection-inversion. Small ranks are exponentially more likely; workload
// generators use this for "hot object" access patterns.
func (r *Rand) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	// Simple inversion on the truncated zeta CDF computed incrementally
	// would be O(n); instead use the standard rejection sampler. Its
	// bounds and acceptance thresholds depend only on (k, s), so they come
	// from the skew's table and each iteration pays only helperHInv.
	oneMinusQ := 1 - s
	oneMinusQInv := 1 / oneMinusQ
	t := r.zipfTable(s, n)
	hx0 := t.entry(0, oneMinusQ, oneMinusQInv).h - 1
	hn := t.entry(n, oneMinusQ, oneMinusQInv).h
	for {
		u := hn + float64(r.Float64()*(hx0-hn))
		x := helperHInv(u, oneMinusQ, oneMinusQInv)
		k := math.Floor(x + 0.5)
		if k < 0 {
			k = 0
		} else if k > float64(n-1) {
			k = float64(n - 1)
		}
		if u >= t.entry(int(k), oneMinusQ, oneMinusQInv).thr {
			return int(k)
		}
	}
}

// zipfTable returns skew s's table with room for ranks 0..n.
func (r *Rand) zipfTable(s float64, n int) *zipfTable {
	var t *zipfTable
	for i := range r.ztabs {
		if r.ztabs[i].s == s {
			t = &r.ztabs[i]
			break
		}
	}
	if t == nil {
		r.ztabs = append(r.ztabs, zipfTable{s: s})
		t = &r.ztabs[len(r.ztabs)-1]
	}
	if len(t.ent) <= n {
		t.ent = append(t.ent, make([]zipfEntry, n+1-len(t.ent))...)
	}
	return t
}

// entry returns rank k's cached values, computing them on first use. The
// fill is a separate call so that the lookup inlines into Zipf's loop.
func (t *zipfTable) entry(k int, oneMinusQ, oneMinusQInv float64) *zipfEntry {
	e := &t.ent[k]
	if e.h == 0 {
		t.fill(e, k, oneMinusQ, oneMinusQInv)
	}
	return e
}

func (t *zipfTable) fill(e *zipfEntry, k int, oneMinusQ, oneMinusQInv float64) {
	kf := float64(k)
	e.h = helperH(kf+0.5, oneMinusQ, oneMinusQInv)
	e.thr = e.h - math.Exp(-t.s*math.Log(kf+1))
}

func helperH(x, oneMinusQ, oneMinusQInv float64) float64 {
	return math.Exp(oneMinusQ*math.Log(1+x)) * oneMinusQInv
}

func helperHInv(x, oneMinusQ, oneMinusQInv float64) float64 {
	return math.Exp(oneMinusQInv*math.Log(oneMinusQ*x)) - 1
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
