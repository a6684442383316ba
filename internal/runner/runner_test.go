package runner

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestParallelismDefaults(t *testing.T) {
	SetParallelism(0)
	if got, want := Parallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default parallelism = %d, want GOMAXPROCS %d", got, want)
	}
	SetParallelism(-3)
	if got, want := Parallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("negative parallelism = %d, want GOMAXPROCS %d", got, want)
	}
	SetParallelism(1)
	if got := Parallelism(); got != 1 {
		t.Fatalf("parallelism = %d, want 1", got)
	}
	SetParallelism(7)
	if got := Parallelism(); got != 7 {
		t.Fatalf("parallelism = %d, want 7", got)
	}
	SetParallelism(0)
}

func TestMapOrderedResults(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		SetParallelism(par)
		items := make([]int, 100)
		for i := range items {
			items[i] = i
		}
		got := Map(items, func(i, v int) int {
			if i != v {
				t.Errorf("index mismatch: fn(%d, %d)", i, v)
			}
			return v * v
		})
		for i, r := range got {
			if r != i*i {
				t.Fatalf("par=%d: result[%d] = %d, want %d", par, i, r, i*i)
			}
		}
	}
	SetParallelism(0)
}

func TestMapEmptyAndSingle(t *testing.T) {
	SetParallelism(4)
	defer SetParallelism(0)
	if got := Map(nil, func(int, int) int { return 1 }); got != nil {
		t.Fatalf("Map(nil) = %v, want nil", got)
	}
	got := Map([]string{"x"}, func(i int, s string) string { return s + "!" })
	if len(got) != 1 || got[0] != "x!" {
		t.Fatalf("Map single = %v", got)
	}
}

func TestMapBoundedConcurrency(t *testing.T) {
	SetParallelism(3)
	defer SetParallelism(0)
	var cur, peak atomic.Int64
	MapN(64, func(int) struct{} {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		for i := 0; i < 1000; i++ {
			runtime.Gosched()
		}
		cur.Add(-1)
		return struct{}{}
	})
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds parallelism 3", p)
	}
}

func TestNestedMapDoesNotDeadlock(t *testing.T) {
	SetParallelism(2)
	defer SetParallelism(0)
	got := MapN(4, func(i int) int {
		inner := MapN(4, func(j int) int { return i*10 + j })
		sum := 0
		for _, v := range inner {
			sum += v
		}
		return sum
	})
	for i, s := range got {
		want := i*40 + 6
		if s != want {
			t.Fatalf("nested result[%d] = %d, want %d", i, s, want)
		}
	}
}
