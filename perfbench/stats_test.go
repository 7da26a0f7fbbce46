package main

import (
	"math"
	"testing"
	"time"
)

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestP90MissingBelow100Operations(t *testing.T) {
	if _, ok := percentile(ascending(99), 90); ok {
		t.Fatal("p90 of 99 operations reported; want missing")
	}
	if v, ok := percentile(ascending(100), 90); !ok || v != 90 {
		t.Fatalf("p90 of 100 operations = %v, %v; want 90, true", v, ok)
	}
	if v, ok := percentile(ascending(1), 50); !ok || v != 1 {
		t.Fatalf("p50 of one operation = %v, %v; want 1, true", v, ok)
	}
}

func TestFailedOperationSlowerThanEveryLimit(t *testing.T) {
	// Every eighth operation fails: the failures make up the slowest
	// eighth, so p90 lands on a failure and exceeds any latency limit.
	w := runWindow(50*time.Millisecond, 1, func(_, i int) (time.Duration, bool) {
		return time.Microsecond, i%8 != 7
	})
	if w.failed == 0 || w.failed != w.ops/8 {
		t.Fatalf("%d of %d operations failed; want one in eight", w.failed, w.ops)
	}
	p90, ok := percentile(w.lat, 90)
	if !ok {
		t.Fatalf("p90 missing over %d operations", w.ops)
	}
	if p90 <= math.MaxFloat64 {
		t.Fatalf("p90 = %v ms with failures in the tail; want slower than every limit", p90)
	}
	if p50, _ := percentile(w.lat, 50); p50 > 1 {
		t.Fatalf("p50 = %v ms; successful operations took 1µs", p50)
	}
	if num(p90) != nil {
		t.Fatal("an infinite latency must be reported as missing, not as a number")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(ascending(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v; want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Fatalf("quartiles = %v %v %v; want 1 2 3", q1, q2, q3)
	}
}

func TestWindowRunsOnToMinOps(t *testing.T) {
	sleeper := func(d time.Duration) func(_, _ int) (time.Duration, bool) {
		return func(_, _ int) (time.Duration, bool) {
			time.Sleep(d)
			return d, true
		}
	}
	// Fewer than minOps operations fit in the window's length but all
	// fit in three lengths: the window runs on until it has them.
	w := runWindow(100*time.Millisecond, 1, sleeper(1200*time.Microsecond))
	if w.ops < minOps {
		t.Fatalf("%d operations in %v; want at least %d", w.ops, w.elapsed, minOps)
	}
	// Operations too slow for minOps in three lengths: the window stops
	// at three lengths.
	w = runWindow(10*time.Millisecond, 1, sleeper(5*time.Millisecond))
	if w.ops >= minOps || w.elapsed < 30*time.Millisecond || w.elapsed > 200*time.Millisecond {
		t.Fatalf("%d operations in %v; want a stop after about 30ms", w.ops, w.elapsed)
	}
}
