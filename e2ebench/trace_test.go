package main

import (
	"math"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	const ms = int64(1e6)
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 10 * ms},
		// Overlapping children cover [1,5] and [7,8] of the parent: 5 ms.
		{ID: 2, Parent: 1, Name: "func", Start: 1 * ms, End: 3 * ms},
		{ID: 3, Parent: 1, Name: "func", Start: 2 * ms, End: 5 * ms},
		{ID: 4, Parent: 1, Name: "verify", Start: 7 * ms, End: 8 * ms},
		// A child running past its parent counts only inside it.
		{ID: 5, Parent: 1, Name: "verify", Start: 9 * ms, End: 12 * ms},
	}
	got := selfTimes(spans)
	want := map[string]selfTime{
		"op":     {mean: 0.004, n: 1}, // 10 ms minus [1,5], [7,8] and [9,10]
		"func":   {mean: 0.0025, n: 2},
		"verify": {mean: 0.002, n: 2},
	}
	for name, w := range want {
		g := got[name]
		if g.n != w.n || math.Abs(g.mean-w.mean) > 1e-12 {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
