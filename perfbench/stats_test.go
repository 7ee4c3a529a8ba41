package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	var vs []float64
	for i := 1; i <= 100; i++ {
		vs = append(vs, float64(101-i)) // unsorted on purpose
	}
	d := NewDist(vs)
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.99, 99}, {1, 100},
	} {
		if got := d.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := NewDist(nil).Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty Quantile = %v, want NaN", got)
	}
}

// A p99 needs ten samples beyond it: 1000 samples is the least.
func TestEnoughBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, {5000, 0.99, true},
		{19, 0.5, false}, {20, 0.5, true}, {9, 0, false}, {10, 0, true},
	} {
		if got := Enough(c.n, c.q); got != c.want {
			t.Errorf("Enough(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// sliceWindow widens slices until each holds minPer samples and drops
// samples outside the window.
func TestSliceWindow(t *testing.T) {
	start := time.Unix(1000, 0)
	var ss []sample
	for i := 0; i < 600; i++ { // 100 samples a second for 6 s
		ss = append(ss, sample{at: start.Add(time.Duration(i) * 10 * time.Millisecond), lat: time.Duration(i), objs: 1})
	}
	ss = append(ss, sample{at: start.Add(-time.Second), objs: 1}, sample{at: start.Add(7 * time.Second), objs: 1})
	end := start.Add(6 * time.Second)

	one := sliceWindow(ss, start, end, 1)
	if len(one) != 6 {
		t.Fatalf("1-sample slices: %d slices, want 6", len(one))
	}
	for i, sl := range one {
		if objs(sl) != 100 {
			t.Errorf("slice %d holds %v samples, want 100", i, objs(sl))
		}
	}
	// 250 samples per slice need 3-second slices: two of them.
	wide := sliceWindow(ss, start, end, 250)
	if len(wide) != 2 || len(wide[0]) != 300 || len(wide[1]) != 300 {
		t.Fatalf("250-sample slices: got %d slices", len(wide))
	}
	// More than the window holds: one slice of everything.
	if all := sliceWindow(ss, start, end, 10_000); len(all) != 1 || len(all[0]) != 600 {
		t.Fatalf("oversized slices: got %d slices", len(all))
	}
}

func TestBucketQuantile(t *testing.T) {
	cum := map[float64]float64{0.001: 10, 0.002: 90, 0.004: 99, 0.008: 100, math.Inf(1): 100}
	for _, c := range []struct{ q, want float64 }{{0.1, 0.001}, {0.5, 0.002}, {0.99, 0.004}, {1, 0.008}} {
		if got := bucketQuantile(cum, c.q); got != c.want {
			t.Errorf("bucketQuantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := bucketQuantile(map[float64]float64{math.Inf(1): 0}, 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}
