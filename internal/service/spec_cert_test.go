package service

import (
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/errest"
)

// TestSpecMetricNormalization: the metric field normalizes deterministically —
// absent means the default, case and whitespace are canonicalized, unknown
// names fail with one stable message — so every consumer (query parsing,
// persistence, resume) sees the same canonical spec.
func TestSpecMetricNormalization(t *testing.T) {
	for _, tc := range []struct {
		in, want string
	}{
		{"", "er"},
		{"er", "er"},
		{"ER", "er"},
		{" Nmed\t", "nmed"},
		{"MRED", "mred"},
	} {
		spec := JobSpec{Metric: tc.in, Threshold: 0.01}
		if err := spec.Normalize(); err != nil {
			t.Fatalf("metric %q: %v", tc.in, err)
		}
		if spec.Metric != tc.want {
			t.Fatalf("metric %q normalized to %q, want %q", tc.in, spec.Metric, tc.want)
		}
		// Normalizing the canonical form again is a fixed point.
		again := spec
		if err := again.Normalize(); err != nil {
			t.Fatalf("metric %q: re-normalize: %v", tc.in, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("metric %q: Normalize is not idempotent: %+v vs %+v", tc.in, spec, again)
		}
	}
	for _, bad := range []string{"wat", "er2", "max"} {
		spec := JobSpec{Metric: bad, Threshold: 0.01}
		if err := spec.Normalize(); err == nil {
			t.Fatalf("unknown metric %q accepted", bad)
		}
	}
}

// TestSpecV2RoundTrip is the regression for the v2-era persistence format:
// a spec JSON written by a daemon that predates the certified job type (no
// max_error / cert_conflict_budget fields) must still load, normalize and
// rebuild the exact same core.Options — an uncertified job stays
// uncertified across the upgrade.
func TestSpecV2RoundTrip(t *testing.T) {
	const v2 = `{
		"metric": "nmed", "threshold": 0.03, "seed": 1, "eval_patterns": 10000,
		"initial_rounds": 64, "max_lacs_per_node": 3, "patience": 2,
		"scale": 0.8, "max_stall": 20, "max_depth_ratio": 0,
		"workers": 1, "format": "blif"
	}`
	var spec JobSpec
	if err := json.Unmarshal([]byte(v2), &spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.Normalize(); err != nil {
		t.Fatalf("v2-era spec no longer normalizes: %v", err)
	}
	if spec.MaxError != 0 || spec.CertConflictBudget != 0 {
		t.Fatalf("v2-era spec gained certification state: %+v", spec)
	}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.MaxError != 0 {
		t.Fatalf("v2-era spec produced a certified session (MaxError %v)", opts.MaxError)
	}

	// Persist → reload → normalize is the restart path; it must be a fixed
	// point, and the reloaded spec must rebuild identical options.
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var reloaded JobSpec
	if err := json.Unmarshal(blob, &reloaded); err != nil {
		t.Fatal(err)
	}
	if err := reloaded.Normalize(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, reloaded) {
		t.Fatalf("spec did not round-trip:\nbefore: %+v\nafter:  %+v", spec, reloaded)
	}
	opts2, err := reloaded.Options()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(opts, opts2) {
		t.Fatal("round-tripped spec rebuilds different options")
	}
}

// TestSpecCertifiedQueryRoundTrip pins the certified job type end to end:
// HTTP query → JobSpec → Normalize → core.Options with the exact bound set.
func TestSpecCertifiedQueryRoundTrip(t *testing.T) {
	r, _ := http.NewRequest(http.MethodPost,
		"/jobs?metric=maxerr&threshold=0.05&certbudget=100000", nil)
	spec, err := specFromQuery(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	// maxerr without an explicit max_error pins the bound to the threshold.
	if spec.MaxError != 0.05 || spec.CertConflictBudget != 100000 {
		t.Fatalf("certified spec did not normalize: %+v", spec)
	}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.MaxError != 0.05 || opts.CertConflictBudget != 100000 || opts.Metric != errest.NMED {
		t.Fatalf("certified spec did not reach the options: %+v", opts)
	}

	// An explicit bound overrides the threshold default.
	r, _ = http.NewRequest(http.MethodPost,
		"/jobs?metric=er&threshold=0.1&maxerror=0.02", nil)
	spec, err = specFromQuery(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	if spec.MaxError != 0.02 {
		t.Fatalf("maxerror query parameter lost: %+v", spec)
	}

	// A certified job with no usable bound is rejected at submission.
	zero := JobSpec{Metric: "maxerr", Threshold: 0}
	if err := zero.Normalize(); err == nil {
		t.Fatal("maxerr with zero bound accepted")
	}
	neg := JobSpec{Metric: "er", Threshold: 0.01, MaxError: -1}
	if err := neg.Normalize(); err == nil {
		t.Fatal("negative max_error accepted")
	}
}

// TestSpecRefusesOutOfRange: Normalize refuses each value alsrac refuses,
// naming the field and its POST /jobs parameter, instead of replacing it
// with a default or keeping a value the session would not run with.
func TestSpecRefusesOutOfRange(t *testing.T) {
	for _, c := range []struct {
		edit func(*JobSpec)
		want string
	}{
		{func(s *JobSpec) { s.Scale = 1.5 }, "scale (r) must be 0 or in (0, 1], got 1.5"},
		{func(s *JobSpec) { s.Scale = -0.5 }, "scale (r) must be 0 or in (0, 1], got -0.5"},
		{func(s *JobSpec) { s.InitialRounds = -5 }, "initial_rounds (n) must be non-negative, got -5"},
		{func(s *JobSpec) { s.MaxLACsPerNode = -5 }, "max_lacs_per_node (l) must be non-negative, got -5"},
		{func(s *JobSpec) { s.Patience = -5 }, "patience (t) must be non-negative, got -5"},
		{func(s *JobSpec) { s.MaxStall = -5 }, "max_stall (maxstall) must be non-negative, got -5"},
		{func(s *JobSpec) { s.MaxDepthRatio = -1 }, "max_depth_ratio (maxdepth) must be non-negative, got -1"},
		{func(s *JobSpec) { s.CertConflictBudget = -3 }, "cert_conflict_budget (certbudget) must be non-negative, got -3"},
		{func(s *JobSpec) { s.EvalPatterns = 10 }, "eval_patterns (eval) must be 0 or at least 64, got 10"},
		{func(s *JobSpec) { s.EvalPatterns = -64 }, "eval_patterns (eval) must be 0 or at least 64, got -64"},
		{func(s *JobSpec) { s.Threshold = math.NaN() }, "threshold (threshold) must be non-negative, got NaN"},
	} {
		spec := JobSpec{Metric: "er", Threshold: 0.01}
		c.edit(&spec)
		if err := spec.Normalize(); err == nil || err.Error() != c.want {
			t.Errorf("Normalize: error %v, want %q", err, c.want)
		}
	}
}
