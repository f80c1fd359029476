package service_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	. "repro/internal/service"
)

// certSpec is the certified job type: NMED-guided search with every commit
// proven by the exact checker to keep the worst-case error within the bound.
func certSpec() JobSpec {
	return JobSpec{
		Metric:       "maxerr",
		Threshold:    0.03,
		Seed:         3,
		EvalPatterns: 1024,
		Workers:      1,
	}
}

// TestCertifiedJobEndToEnd: a certified job submitted through the manager
// runs to completion, its event stream carries certified (and possibly
// rejected) step events, and the certification metrics move.
func TestCertifiedJobEndToEnd(t *testing.T) {
	circuit := testCircuit(t)
	spec := certSpec()
	want, wantAAG := referenceRun(t, spec, circuit)

	m, stop := startManager(t, Config{Dir: t.TempDir()})
	defer stop()

	st, err := m.Submit(spec, circuit)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitState(t, m, st.ID, StateDone)
	if final.FinalError != want.FinalError || final.Applied != want.Applied {
		t.Fatalf("certified job got %v/%d applied, reference %v/%d",
			final.FinalError, final.Applied, want.FinalError, want.Applied)
	}
	if !bytes.Equal(graphAAG(t, m, st.ID), wantAAG) {
		t.Fatal("certified service result differs from direct core.Run")
	}

	// Every committed step of a certified job is a "certified" event — the
	// NDJSON stream must never show a plain "applied" — and rejected events
	// must agree with the rejection counter.
	job, _ := m.Get(st.ID)
	events, _, _ := job.Subscribe(0)
	certified, rejected := 0, 0
	for _, ev := range events {
		if ev.Step == nil {
			continue
		}
		switch ev.Step.Kind {
		case core.EventApplied:
			t.Fatalf("plain applied event in a certified job: %+v", ev.Step)
		case core.EventCertified:
			certified++
			if ev.Step.CertBackend == "" {
				t.Fatalf("certified event without a backend: %+v", ev.Step)
			}
		case core.EventCertRejected:
			rejected++
		}
	}
	if certified != want.Applied {
		t.Fatalf("%d certified events, reference applied %d", certified, want.Applied)
	}

	var calls, observed float64
	for _, b := range []string{exact.BackendTrivial, exact.BackendExhaustive, exact.BackendSAT} {
		calls += metric(t, m, fmt.Sprintf("alsrac_certify_total{backend=%q}", b))
		observed += metric(t, m, fmt.Sprintf("alsrac_certify_seconds_count{backend=%q}", b))
	}
	if calls == 0 {
		t.Fatal("alsrac_certify_total never moved")
	}
	if got := metric(t, m, "alsrac_certify_rejected_total"); got != float64(rejected) {
		t.Fatalf("alsrac_certify_rejected_total %v, %d rejected events", got, rejected)
	}
	if observed != calls {
		t.Fatalf("latency histograms observed %v certifications, counters say %v", observed, calls)
	}
}

// TestCertifiedKillAndResume is the acceptance crash test for the certified
// job type: interrupt a certified job mid-run (checkpoint v3 carries the
// certification state), restart over the same directory, and require a
// final graph bitwise identical to the uninterrupted certified run, with
// the rejection history intact — on either transport.
func TestCertifiedKillAndResume(t *testing.T) {
	for _, tr := range transports {
		t.Run(string(tr), func(t *testing.T) { testKillAndResume(t, tr, certSpec()) })
	}
}
