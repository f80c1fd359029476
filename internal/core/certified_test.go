package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/aig"
	"repro/internal/errest"
	"repro/internal/exact"
)

// runCertified drives a certified session to completion, collecting every
// event and post-hoc certifying each committed circuit state against an
// independent exhaustive checker built on the original graph.
func runCertified(t *testing.T, opts Options) (*Session, []Event) {
	t.Helper()
	g := rippleAdder(8)
	chk, err := exact.New(g, exact.Config{})
	if err != nil {
		t.Fatalf("post-hoc checker: %v", err)
	}
	bound := chk.EDThreshold(opts.MaxError)

	s := NewSession(g, opts)
	var events []Event
	for {
		ev, err := s.Step(context.Background())
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		events = append(events, ev)
		if ev.Kind == EventCertified {
			// The acceptance contract: every state the flow commits has an
			// exact maximum error within the bound, proven here by full
			// enumeration independent of the in-flow certificate.
			m, err := chk.MaxError(s.cur)
			if err != nil {
				t.Fatalf("iter %d: post-hoc measure: %v", ev.Iteration, err)
			}
			if m.MaxED > bound {
				t.Fatalf("iter %d: committed state has exact max ED %d > bound %d (cert said %.5g via %s)",
					ev.Iteration, m.MaxED, bound, ev.CertMaxErr, ev.CertBackend)
			}
		}
		if ev.Done {
			break
		}
		if len(events) > 10000 {
			t.Fatal("certified session did not terminate")
		}
	}
	return s, events
}

// TestCertifiedRunRespectsMaxError: with Options.MaxError set, every commit
// is an EventCertified whose circuit provably stays within the bound, the
// rejection counters agree across events, history, and the session, and the
// final result is itself within the bound.
func TestCertifiedRunRespectsMaxError(t *testing.T) {
	opts := sessionOpts(errest.ER)
	opts.Threshold = 0.10
	opts.MaxError = 0.02
	s, events := runCertified(t, opts)

	applied, certified, rejectedEvents := 0, 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case EventApplied:
			t.Fatalf("iter %d: plain applied event in certified mode", ev.Iteration)
		case EventCertified:
			certified++
			if ev.CertBackend == "" {
				t.Fatalf("iter %d: certified event without a backend", ev.Iteration)
			}
			if ev.CertMaxErr > opts.MaxError {
				t.Fatalf("iter %d: certificate max error %v exceeds bound %v",
					ev.Iteration, ev.CertMaxErr, opts.MaxError)
			}
		case EventCertRejected:
			rejectedEvents++
			if ev.Applied {
				t.Fatalf("iter %d: rejection event marked applied", ev.Iteration)
			}
		}
		if ev.Applied {
			applied++
		}
	}
	if certified != applied {
		t.Fatalf("%d certified events but %d applied", certified, applied)
	}
	if certified == 0 {
		t.Fatal("certified run committed nothing — the test exercised no commits")
	}

	res := s.Result()
	if applied != res.Applied {
		t.Fatalf("%d applied events, result says %d", applied, res.Applied)
	}
	rejectedRecords := 0
	for _, rec := range res.History {
		if rec.Rejected {
			rejectedRecords++
			if rec.Applied {
				t.Fatalf("iter %d: history record both applied and rejected", rec.Iteration)
			}
		}
	}
	if rejectedRecords != s.CertRejections() || rejectedEvents != s.CertRejections() {
		t.Fatalf("rejections disagree: %d records, %d events, session says %d",
			rejectedRecords, rejectedEvents, s.CertRejections())
	}

	// The final best graph obeys the bound too (Result may return an earlier
	// snapshot than s.cur, so certify it separately).
	chk, err := exact.New(rippleAdder(8), exact.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := chk.MaxError(res.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxED > chk.EDThreshold(opts.MaxError) {
		t.Fatalf("final graph has exact max ED %d > bound %d", m.MaxED, chk.EDThreshold(opts.MaxError))
	}
}

// TestCertifiedZeroBoundKeepsFunction: MaxError = 0 with a permissive
// metric threshold turns certification into an exact-equivalence gate — the
// statistical flow keeps electing error-introducing winners, every one is
// rejected, and the result is functionally identical to the input.
func TestCertifiedZeroBoundKeepsFunction(t *testing.T) {
	opts := sessionOpts(errest.ER)
	opts.Threshold = 0.10
	// MaxError is only engaged when positive: a zero bound comes through the
	// smallest representable positive threshold instead. EDThreshold clamps
	// anything below one error-distance unit to an exact ED of 0.
	opts.MaxError = 1e-9
	s, _ := runCertified(t, opts)

	chk, err := exact.New(rippleAdder(8), exact.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := chk.MaxError(s.Result().Graph)
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxED != 0 {
		t.Fatalf("zero-bound certified run changed the function: exact max ED %d", m.MaxED)
	}
	if s.CertRejections() == 0 {
		t.Fatal("expected the zero bound to reject at least one statistical winner")
	}
}

// satSessionOpts certifies a 16-bit adder session at NMED = MaxError = 0.02:
// about 30 steps, nearly all certified by SAT, two of them rejected.
func satSessionOpts() Options {
	opts := sessionOpts(errest.NMED)
	opts.Threshold = 0.02
	opts.MaxError = 0.02
	return opts
}

// TestCertifiedSessionSAT runs a certified session whose certifications go
// to the SAT backend: a 16-bit adder has 33 inputs, past the exhaustive
// capacity, so it is the only session test where the working-graph base
// shapes the SAT instance. Every committed state is re-proven by a separate
// SAT checker against the original as base, the instance without the
// working-graph lemma.
func TestCertifiedSessionSAT(t *testing.T) {
	g := rippleAdder(16)
	opts := satSessionOpts()
	chk, err := exact.New(g, exact.Config{MaxExhaustivePIs: -1})
	if err != nil {
		t.Fatal(err)
	}

	s := NewSession(g, opts)
	satCertified, satRejected := 0, 0
	for steps := 0; !s.Done(); steps++ {
		if steps == 60 {
			t.Fatal("certified session did not finish within 60 steps")
		}
		ev, err := s.Step(context.Background())
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		switch ev.Kind {
		case EventCertified:
			if ev.CertBackend == exact.BackendSAT {
				satCertified++
			}
			cert, err := chk.Certify(g, s.cur, opts.MaxError)
			if err != nil || !cert.OK {
				t.Fatalf("iter %d: committed state fails re-proof against the original: %+v, %v", ev.Iteration, cert, err)
			}
		case EventCertRejected:
			if ev.CertBackend == exact.BackendSAT {
				satRejected++
			}
			if ev.CertMaxErr <= opts.MaxError {
				t.Fatalf("iter %d: rejection with witness error %v within the bound %v", ev.Iteration, ev.CertMaxErr, opts.MaxError)
			}
		}
	}
	if satCertified == 0 || satRejected == 0 {
		t.Fatalf("%d SAT certifications and %d SAT rejections; the test needs both", satCertified, satRejected)
	}
}

// TestCertifiedKillResume is the kill-and-resume contract for certified
// mode: a certified session snapshotted mid-run (including right after a
// rejection), discarded, and restored must finish with history — rejection
// flags included — rejection counter, and final AIG bitwise identical to
// the uninterrupted certified run. The 8-bit adder certifies exhaustively,
// the 16-bit one by SAT against the restored working graph.
func TestCertifiedKillResume(t *testing.T) {
	rca8 := sessionOpts(errest.ER)
	rca8.Threshold = 0.10
	rca8.MaxError = 0.02
	for _, c := range []struct {
		name string
		g    *aig.Graph
		opts Options
	}{
		{"rca8", rippleAdder(8), rca8},
		{"rca16", rippleAdder(16), satSessionOpts()},
	} {
		t.Run(c.name, func(t *testing.T) { certifiedKillResume(t, c.g, c.opts) })
	}
}

func certifiedKillResume(t *testing.T, g *aig.Graph, opts Options) {
	want := NewSession(g, opts)
	for !want.Done() {
		if ev, err := want.Step(context.Background()); err != nil || ev.Done {
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			break
		}
	}
	wantRes := want.Result()

	for _, kill := range []int{0, 1, 2, 4, 8, 13} {
		s := NewSession(g, opts)
		for i := 0; i < kill && !s.Done(); i++ {
			if _, err := s.Step(context.Background()); err != nil {
				t.Fatalf("kill %d: step: %v", kill, err)
			}
		}
		var ckpt bytes.Buffer
		if err := s.Snapshot(&ckpt); err != nil {
			t.Fatalf("kill %d: snapshot: %v", kill, err)
		}
		s = nil // nothing survives but the checkpoint bytes

		r, err := Restore(bytes.NewReader(ckpt.Bytes()), opts)
		if err != nil {
			t.Fatalf("kill %d: restore: %v", kill, err)
		}
		for !r.Done() {
			if ev, err := r.Step(context.Background()); err != nil || ev.Done {
				if err != nil {
					t.Fatalf("kill %d: resumed step: %v", kill, err)
				}
				break
			}
		}
		got := r.Result()
		if got.FinalError != wantRes.FinalError || got.Iterations != wantRes.Iterations || got.Applied != wantRes.Applied {
			t.Fatalf("kill %d: result %v/%d/%d, want %v/%d/%d", kill,
				got.FinalError, got.Iterations, got.Applied,
				wantRes.FinalError, wantRes.Iterations, wantRes.Applied)
		}
		if r.CertRejections() != want.CertRejections() {
			t.Fatalf("kill %d: %d rejections after resume, want %d",
				kill, r.CertRejections(), want.CertRejections())
		}
		if !reflect.DeepEqual(got.History, wantRes.History) {
			t.Fatalf("kill %d: history differs after resume", kill)
		}
		if !bytes.Equal(graphBytes(t, got.Graph), graphBytes(t, wantRes.Graph)) {
			t.Fatalf("kill %d: final graph not bitwise identical", kill)
		}
	}
}
