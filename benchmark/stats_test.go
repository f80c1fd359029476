package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample must give 0")
	}
}

// The tail rule: report the highest percentile with at least ten samples
// beyond it, and fall back to the median when none has.
func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{0, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if got := tailPercentile(tc.n); got != 50 && float64(tc.n)*(1-got/100) < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than 10 samples beyond it", tc.n, got)
		}
	}
}

// Spreads are judged as Python's statistics.quantiles(xs, n=4) computes
// them; the expected values are its output.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	if got := geomean([]float64{0.5, 0.5, 0.5}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("geomean of equal ratios = %v, want 0.5", got)
	}
	if geomean([]float64{1, 0}) != 0 || geomean(nil) != 0 {
		t.Error("a zero ratio or an empty sample must give 0, which the run reports as a failure")
	}
}

// Self time is a span's duration minus the union of its children's
// intervals, clipped to the span: overlapping children count once.
func TestSelfTimes(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "core.flow", Req: "a", ID: 1, Start: at(0), End: at(100)},
		{Name: "core.step", Req: "a", ID: 2, Parent: 1, Start: at(10), End: at(60)},
		{Name: "sim.care", Req: "a", ID: 3, Parent: 2, Start: at(10), End: at(20)},
		{Name: "errest.rank", Req: "a", ID: 4, Parent: 2, Start: at(15), End: at(30)},
		{Name: "opt.flush", Req: "a", ID: 5, Parent: 2, Start: at(50), End: at(70)},
		// Same IDs under another request must not count as children.
		{Name: "core.step", Req: "b", ID: 2, Parent: 1, Start: at(0), End: at(100)},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"core.flow":   50 * time.Millisecond,  // 100 - step [10,60]
		"core.step":   120 * time.Millisecond, // a: 50 - ([10,30] + [50,60]); b: 100, no children
		"sim.care":    10 * time.Millisecond,
		"errest.rank": 15 * time.Millisecond,
		"opt.flush":   20 * time.Millisecond,
	} {
		if self[name] != want {
			t.Errorf("self(%s) = %v, want %v", name, self[name], want)
		}
	}
	d := durations(spans)
	if d["core.step"] != 150*time.Millisecond {
		t.Errorf("durations(core.step) = %v, want 150ms", d["core.step"])
	}
}
