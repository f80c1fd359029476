package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/aig"
	"repro/internal/aiger"
	"repro/internal/bench"
	"repro/internal/errest"
	"repro/internal/opt"
	"repro/internal/sim"
)

// graphBytes serializes a graph to ASCII AIGER for bitwise comparison.
func graphBytes(t *testing.T, g *aig.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := aiger.Write(&buf, g, "aag"); err != nil {
		t.Fatalf("aiger write: %v", err)
	}
	return buf.Bytes()
}

func sessionOpts(metric errest.Metric) Options {
	opts := DefaultOptions(metric, 0.01)
	opts.EvalPatterns = 1024
	opts.Seed = 3
	opts.Workers = 1
	return opts
}

// flowCase is one flow configuration of the kill-and-resume and
// worker-count determinism tests: a metric and a rewrite of the test's
// options (nil for the default flow).
type flowCase struct {
	name   string
	metric errest.Metric
	mutate func(*Options)
}

// extraFlowCases are the non-default flows: a depth-capped session here
// and, appended by baseline_test.go (package core_test, which can import
// the baselines without an import cycle), a SASIMI session.
var extraFlowCases = []flowCase{
	{"depth-capped", errest.NMED, func(o *Options) { o.MaxDepthRatio = 0.9 }},
}

// AddFlowCase registers an extra determinism-test flow from an external
// test package; call it from an init function.
func AddFlowCase(name string, metric errest.Metric, mutate func(*Options)) {
	extraFlowCases = append(extraFlowCases, flowCase{name, metric, mutate})
}

// determinismCases lists the default flow under both metric families, then
// the extra flows.
func determinismCases() []flowCase {
	return append([]flowCase{{"ER", errest.ER, nil}, {"NMED", errest.NMED, nil}}, extraFlowCases...)
}

// options derives the case's options from the test's base options.
func (fc flowCase) options(base func(errest.Metric) Options) Options {
	opts := base(fc.metric)
	if fc.mutate != nil {
		fc.mutate(&opts)
	}
	return opts
}

// TestSessionMatchesRun: driving a Session step by step must reproduce Run
// exactly — same history, same final graph, same error.
// TestHugeDepthRatioSaturates requires a depth ratio whose cap does not fit
// an int to act as a cap that never binds, not as no cap: the session still
// runs the capped flow, which re-optimizes every commit, so 1e300 must give
// 1e6's result, and that result is not the uncapped one on this circuit.
func TestHugeDepthRatioSaturates(t *testing.T) {
	g := opt.Optimize(bench.RCA(16))
	opts := DefaultOptions(errest.NMED, 0.01)
	run := func(ratio float64) (Result, []byte) {
		opts.MaxDepthRatio = ratio
		res := Run(g, opts)
		return res, graphBytes(t, res.Graph)
	}
	want, wantBytes := run(1e6)
	if _, free := run(0); bytes.Equal(free, wantBytes) {
		t.Fatal("the capped and the uncapped flow agree on this circuit; the test cannot tell them apart")
	}
	got, gotBytes := run(1e300)
	if got.FinalError != want.FinalError || got.Iterations != want.Iterations || got.Applied != want.Applied ||
		!reflect.DeepEqual(got.History, want.History) || !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("ratio 1e300: %d ANDs, error %v, %d applied; ratio 1e6: %d ANDs, error %v, %d applied",
			got.Graph.NumAnds(), got.FinalError, got.Applied, want.Graph.NumAnds(), want.FinalError, want.Applied)
	}
}

func TestSessionMatchesRun(t *testing.T) {
	g := rippleAdder(8)
	opts := sessionOpts(errest.ER)
	want := Run(g, opts)

	s := NewSession(g, opts)
	steps := 0
	for !s.Done() {
		ev, err := s.Step(context.Background())
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		if ev.Done {
			break
		}
		steps++
		if steps > 10000 {
			t.Fatal("session did not terminate")
		}
	}
	got := s.Result()
	if got.FinalError != want.FinalError || got.Iterations != want.Iterations || got.Applied != want.Applied {
		t.Fatalf("session result %v/%d/%d, Run %v/%d/%d",
			got.FinalError, got.Iterations, got.Applied,
			want.FinalError, want.Iterations, want.Applied)
	}
	if !reflect.DeepEqual(got.History, want.History) {
		t.Fatalf("history differs:\nsession: %+v\nrun:     %+v", got.History, want.History)
	}
	if !bytes.Equal(graphBytes(t, got.Graph), graphBytes(t, want.Graph)) {
		t.Fatal("final graphs differ between Session and Run")
	}
}

// TestSessionSnapshotRestoreDeterministic is the kill-and-resume contract:
// a session snapshotted mid-run, discarded ("killed"), and restored from the
// checkpoint bytes must finish with a final AIG and error bitwise identical
// to the uninterrupted run with the same seed — for several kill points,
// both metric families, and the depth-capped and SASIMI flows.
func TestSessionSnapshotRestoreDeterministic(t *testing.T) {
	for _, fc := range determinismCases() {
		g := rippleAdder(8)
		opts := fc.options(sessionOpts)
		want := Run(g, opts)

		// 9 and 12 land past the first optEvery boundary, so the restored
		// session must also reproduce the optimizer flush and the arena
		// rebinds that follow it.
		for _, kill := range []int{0, 1, 3, 7, 9, 12, 20} {
			s := NewSession(g, opts)
			for i := 0; i < kill && !s.Done(); i++ {
				if _, err := s.Step(context.Background()); err != nil {
					t.Fatalf("%s kill %d: step: %v", fc.name, kill, err)
				}
			}
			var ckpt bytes.Buffer
			if err := s.Snapshot(&ckpt); err != nil {
				t.Fatalf("%s kill %d: snapshot: %v", fc.name, kill, err)
			}
			s = nil // the "kill": nothing survives but the checkpoint bytes

			r, err := Restore(bytes.NewReader(ckpt.Bytes()), opts)
			if err != nil {
				t.Fatalf("%s kill %d: restore: %v", fc.name, kill, err)
			}
			for !r.Done() {
				ev, err := r.Step(context.Background())
				if err != nil {
					t.Fatalf("%s kill %d: resumed step: %v", fc.name, kill, err)
				}
				if ev.Done {
					break
				}
			}
			got := r.Result()
			if got.FinalError != want.FinalError {
				t.Fatalf("%s kill %d: FinalError %v, want %v", fc.name, kill, got.FinalError, want.FinalError)
			}
			if got.Iterations != want.Iterations || got.Applied != want.Applied {
				t.Fatalf("%s kill %d: iterations/applied %d/%d, want %d/%d",
					fc.name, kill, got.Iterations, got.Applied, want.Iterations, want.Applied)
			}
			if !reflect.DeepEqual(got.History, want.History) {
				t.Fatalf("%s kill %d: history differs", fc.name, kill)
			}
			if !bytes.Equal(graphBytes(t, got.Graph), graphBytes(t, want.Graph)) {
				t.Fatalf("%s kill %d: final graph not bitwise identical", fc.name, kill)
			}
		}
	}
}

// TestRestoreRebuildsArenaBitIdentical: the checkpoint does not serialize the
// simulation arenas — Restore rebuilds them from the stored graph and care
// seed. This test pins the property that rebuild relies on: the from-scratch
// arena words equal the incrementally maintained ones bit for bit. A killed
// session and its restored twin each take one more step; afterwards every
// live node's pattern words in both arenas must match exactly.
func TestRestoreRebuildsArenaBitIdentical(t *testing.T) {
	g := rippleAdder(8)
	opts := sessionOpts(errest.NMED)
	s := NewSession(g, opts)
	for i := 0; i < 5 && !s.Done(); i++ {
		if _, err := s.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	var ckpt bytes.Buffer
	if err := s.Snapshot(&ckpt); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&ckpt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Done() != r.Done() {
		t.Fatalf("killed session done=%v, restored done=%v", s.Done(), r.Done())
	}
	if s.Done() {
		t.Skip("session finished before the arenas could be compared")
	}
	compare := func(name string, a, b *sim.Arena) {
		t.Helper()
		if (a == nil) != (b == nil) {
			t.Fatalf("%s arena: original %v, restored %v", name, a != nil, b != nil)
		}
		if a == nil {
			return
		}
		va, vb := a.Vectors(), b.Vectors()
		for n := aig.Node(0); int(n) < s.cur.NumNodes(); n++ {
			if s.cur.Kind(n) == aig.KindDead {
				continue
			}
			if !reflect.DeepEqual(va.Node(n), vb.Node(n)) {
				t.Fatalf("%s arena: node %d words differ after restore", name, n)
			}
		}
	}
	compare("care", s.careArena, r.careArena)
	compare("eval", s.evalArena, r.evalArena)
}

// TestSessionSnapshotOfFinishedSession: a terminal session round-trips too
// (the service checkpoints completed jobs before writing results).
func TestSessionSnapshotOfFinishedSession(t *testing.T) {
	g := rippleAdder(6)
	opts := sessionOpts(errest.ER)
	s := NewSession(g, opts)
	for !s.Done() {
		if ev, err := s.Step(context.Background()); err != nil || ev.Done {
			break
		}
	}
	want := s.Result()

	var ckpt bytes.Buffer
	if err := s.Snapshot(&ckpt); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	r, err := Restore(&ckpt, opts)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !r.Done() {
		t.Fatal("restored session lost its terminal state")
	}
	if ev, err := r.Step(context.Background()); err != nil || !ev.Done {
		t.Fatalf("step on finished session: ev=%+v err=%v", ev, err)
	}
	got := r.Result()
	if got.FinalError != want.FinalError || !bytes.Equal(graphBytes(t, got.Graph), graphBytes(t, want.Graph)) {
		t.Fatal("finished session did not round-trip")
	}
}

// TestRestoreRejectsCorruption: a flipped byte anywhere in the checkpoint
// must be detected by the CRC.
func TestRestoreRejectsCorruption(t *testing.T) {
	g := rippleAdder(6)
	opts := sessionOpts(errest.ER)
	s := NewSession(g, opts)
	if _, err := s.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := s.Snapshot(&ckpt); err != nil {
		t.Fatal(err)
	}
	raw := ckpt.Bytes()
	for _, off := range []int{0, len(raw) / 3, len(raw) - 5} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		if _, err := Restore(bytes.NewReader(bad), opts); err == nil {
			t.Fatalf("corruption at offset %d not detected", off)
		}
	}
	if _, err := Restore(bytes.NewReader(raw[:10]), opts); err == nil {
		t.Fatal("truncated checkpoint not detected")
	}
}

// TestRestoreRejectsMismatchedOptions: restoring under different seed,
// metric, threshold or evaluation budget must fail loudly instead of
// silently diverging.
func TestRestoreRejectsMismatchedOptions(t *testing.T) {
	g := rippleAdder(6)
	opts := sessionOpts(errest.ER)
	s := NewSession(g, opts)
	var ckpt bytes.Buffer
	if err := s.Snapshot(&ckpt); err != nil {
		t.Fatal(err)
	}
	raw := ckpt.Bytes()

	cases := []struct {
		name   string
		mutate func(o *Options)
	}{
		{"seed", func(o *Options) { o.Seed = 99 }},
		{"metric", func(o *Options) { o.Metric = errest.NMED }},
		{"threshold", func(o *Options) { o.Threshold = 0.5 }},
		{"eval", func(o *Options) { o.EvalPatterns = 4096 }},
		{"maxerror", func(o *Options) { o.MaxError = 0.5 }},
	}
	for _, tc := range cases {
		bad := opts
		tc.mutate(&bad)
		if _, err := Restore(bytes.NewReader(raw), bad); err == nil {
			t.Fatalf("mismatched %s accepted", tc.name)
		}
	}
	if _, err := Restore(bytes.NewReader(raw), opts); err != nil {
		t.Fatalf("matching options rejected: %v", err)
	}
}

// TestRunCtxCancelReturnsBestSoFar: cancellation is a budget — RunCtx under
// an already-expired context still returns a valid, threshold-respecting
// result (the unmodified swept circuit in the degenerate case), not an
// error or nil graph.
func TestRunCtxCancelReturnsBestSoFar(t *testing.T) {
	g := rippleAdder(8)
	opts := sessionOpts(errest.ER)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := RunCtx(ctx, g, opts)
	if res.Graph == nil {
		t.Fatal("cancelled run returned nil graph")
	}
	if res.Iterations != 0 || res.Applied != 0 {
		t.Fatalf("expired context ran %d iterations", res.Iterations)
	}
	if err := exactError(t, g, res.Graph, errest.ER); err != 0 {
		t.Fatalf("degenerate result is not the exact circuit (error %v)", err)
	}

	// Cancel after a few steps: the partial result must match the prefix of
	// the uninterrupted run (same seed ⇒ same first iterations).
	full := Run(g, opts)
	s := NewSession(g, opts)
	for i := 0; i < 3 && !s.Done(); i++ {
		if _, err := s.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	partial := s.Result()
	if len(partial.History) > len(full.History) {
		t.Fatal("partial run longer than full run")
	}
	if !reflect.DeepEqual(partial.History, full.History[:len(partial.History)]) {
		t.Fatal("partial history is not a prefix of the full history")
	}
	if partial.FinalError > opts.Threshold {
		t.Fatalf("best-so-far result violates threshold: %v", partial.FinalError)
	}
}

// TestSessionStepEvents: the event stream tells a consistent story — one
// event per iteration, monotone iteration numbers, applied events matching
// the history, and a terminal reason.
func TestSessionStepEvents(t *testing.T) {
	g := rippleAdder(8)
	opts := sessionOpts(errest.NMED)
	s := NewSession(g, opts)

	var events []Event
	for {
		ev, err := s.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
		if ev.Done {
			break
		}
	}
	last := events[len(events)-1]
	if last.Kind != EventDone && last.Kind != EventThreshold {
		t.Fatalf("terminal event kind %q", last.Kind)
	}
	if last.Reason == "" {
		t.Fatal("terminal event has no reason")
	}
	applied := 0
	for i, ev := range events[:len(events)-1] {
		if ev.Iteration != i+1 {
			t.Fatalf("event %d has iteration %d", i, ev.Iteration)
		}
		if ev.Applied {
			applied++
		}
	}
	res := s.Result()
	if applied != res.Applied {
		t.Fatalf("%d applied events, result says %d", applied, res.Applied)
	}
	if got := len(events) - 1; got != res.Iterations && events[len(events)-1].Kind == EventDone {
		t.Fatalf("%d iteration events, result says %d iterations", got, res.Iterations)
	}
}
