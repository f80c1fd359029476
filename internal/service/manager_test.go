package service_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	. "repro/internal/service"
)

// TestManagerRunsJobToCompletion: a submitted job must produce exactly the
// result a direct core.Run yields for the same spec and circuit.
func TestManagerRunsJobToCompletion(t *testing.T) {
	circuit := testCircuit(t)
	spec := testSpec()
	want, wantAAG := referenceRun(t, spec, circuit)

	m, stop := startManager(t, Config{Dir: t.TempDir(), Workers: 2})
	defer stop()

	st, err := m.Submit(spec, circuit)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.State != StateQueued {
		t.Fatalf("fresh job state %s, want queued", st.State)
	}
	final := waitState(t, m, st.ID, StateDone)
	if final.Iterations != want.Iterations || final.Applied != want.Applied {
		t.Fatalf("job did %d iterations / %d applied, reference %d / %d",
			final.Iterations, final.Applied, want.Iterations, want.Applied)
	}
	if final.FinalError != want.FinalError {
		t.Fatalf("job final error %v, reference %v", final.FinalError, want.FinalError)
	}
	if !bytes.Equal(graphAAG(t, m, st.ID), wantAAG) {
		t.Fatal("service result differs from direct core.Run")
	}
	if len(final.History) != want.Iterations {
		t.Fatalf("status history has %d records, want %d", len(final.History), want.Iterations)
	}
}

// TestKillAndResume is the crash/resume e2e of the issue: run a job under an
// engine, shut it down mid-run (the worker checkpoints its in-flight
// session), then bring up a fresh engine over the same directory and let
// the resumed session finish. The final result must be bitwise identical to
// an uninterrupted run with the same seed — whichever transport the worker
// uses.
func TestKillAndResume(t *testing.T) {
	for _, tr := range transports {
		t.Run(string(tr), func(t *testing.T) { testKillAndResume(t, tr, testSpec()) })
	}
}

func testKillAndResume(t *testing.T, tr transport, spec JobSpec) {
	dir := t.TempDir()
	circuit := testCircuit(t)
	want, wantAAG := referenceRun(t, spec, circuit)
	if want.Iterations < 3 {
		t.Fatalf("reference run too short (%d iterations) to interrupt meaningfully", want.Iterations)
	}

	// Phase 1: start, let the session make some progress, then "crash"
	// (graceful shutdown checkpoints the in-flight job and leaves it
	// resumable — the same on-disk state a SIGKILL after a periodic
	// checkpoint would leave).
	m1, stop1 := startRig(t, tr, Config{Dir: dir, CheckpointEvery: 1})
	st, err := m1.Submit(spec, circuit)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitIterations(t, m1, st.ID, 1)
	stop1()

	interrupted, _ := m1.Get(st.ID)
	istat := interrupted.Status(false)
	if istat.State.Terminal() && istat.State != StateDone {
		t.Fatalf("interrupted job in unexpected state %s (%s)", istat.State, istat.Error)
	}
	resumed := !istat.State.Terminal()
	if resumed {
		gens, err := filepath.Glob(filepath.Join(dir, "cas", "*", st.Key, "checkpoint.*"))
		if err != nil || len(gens) == 0 {
			t.Fatalf("no checkpoint generation after shutdown (%v, %v)", gens, err)
		}
	} else {
		// The job beat the shutdown; the restart phase below still must
		// serve the persisted result.
		t.Log("job finished before shutdown; exercising restart-load path only")
	}

	// Phase 2: a fresh engine over the same directory recovers the job.
	m2, stop2 := startRig(t, tr, Config{Dir: dir, CheckpointEvery: 1})
	defer stop2()
	final := waitState(t, m2, st.ID, StateDone)
	if final.FinalError != want.FinalError {
		t.Fatalf("resumed final error %v, reference %v", final.FinalError, want.FinalError)
	}
	if final.Iterations != want.Iterations || final.Applied != want.Applied {
		t.Fatalf("resumed run did %d iterations / %d applied, reference %d / %d",
			final.Iterations, final.Applied, want.Iterations, want.Applied)
	}
	if !bytes.Equal(graphAAG(t, m2, st.ID), wantAAG) {
		t.Fatal("resumed result differs bitwise from uninterrupted run")
	}
	if resumed && metric(t, m2, "alsrac_resumes_total") == 0 {
		t.Fatal("job restarted from scratch: expected a checkpoint restore")
	}
	if tr == inproc {
		// The rejection history survives the restart: rejected records in
		// the final status must match the reference run's.
		wantRejected, gotRejected := 0, 0
		for _, rec := range want.History {
			if rec.Rejected {
				wantRejected++
			}
		}
		for _, rec := range final.History {
			if rec.Rejected {
				gotRejected++
			}
		}
		if gotRejected != wantRejected {
			t.Fatalf("resumed history has %d rejected records, reference %d", gotRejected, wantRejected)
		}
	}
}

// TestGracefulShutdownCheckpointsAllInflight: with several jobs running
// concurrently, cancelling the manager must leave every non-finished job
// resumable, and a second manager must finish all of them correctly.
func TestGracefulShutdownCheckpointsAllInflight(t *testing.T) {
	dir := t.TempDir()
	circuit := testCircuit(t)
	const jobs = 3

	specs := make([]JobSpec, jobs)
	wantAAG := make(map[string][]byte)
	m1, stop1 := startManager(t, Config{Dir: dir, Workers: jobs, CheckpointEvery: 1})
	ids := make([]string, jobs)
	for i := range specs {
		specs[i] = testSpec()
		specs[i].Seed = int64(10 + i)
		st, err := m1.Submit(specs[i], circuit)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids[i] = st.ID
		_, aag := referenceRun(t, specs[i], circuit)
		wantAAG[st.ID] = aag
	}
	// Give the workers a moment to pick jobs up, then shut down mid-run.
	deadline := time.Now().Add(60 * time.Second)
	for {
		started := 0
		for _, id := range ids {
			job, _ := m1.Get(id)
			if s := job.Status(false); s.Iterations >= 1 || s.State.Terminal() {
				started++
			}
		}
		if started == jobs || time.Now().After(deadline) {
			break
		}
	}
	stop1()

	m2, stop2 := startManager(t, Config{Dir: dir, Workers: jobs, CheckpointEvery: 1})
	defer stop2()
	for _, id := range ids {
		waitState(t, m2, id, StateDone)
		if !bytes.Equal(graphAAG(t, m2, id), wantAAG[id]) {
			t.Fatalf("job %s: resumed result differs from reference", id)
		}
	}
}

// TestCancelQueuedJob: cancelling before a worker picks the job up must
// finalize it immediately, and a worker that later pops it must skip it.
func TestCancelQueuedJob(t *testing.T) {
	m, err := New(Config{Dir: t.TempDir(), Now: time.Now})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// No Run: the job stays queued.
	st, err := m.Submit(testSpec(), testCircuit(t))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got, err := m.Cancel(st.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if got.State != StateCancelled {
		t.Fatalf("state %s after cancel, want cancelled", got.State)
	}
	// Idempotent.
	if got, err = m.Cancel(st.ID); err != nil || got.State != StateCancelled {
		t.Fatalf("second cancel: %v, state %s", err, got.State)
	}
	if _, err := m.ResultAAG(st.ID); !errors.Is(err, ErrNotDone) {
		t.Fatalf("ResultAAG on cancelled job: %v, want ErrNotDone", err)
	}
}

// TestCancelRunningJob: a running job must stop at the next step boundary.
func TestCancelRunningJob(t *testing.T) {
	m, stop := startManager(t, Config{Dir: t.TempDir(), CheckpointEvery: 1})
	defer stop()
	spec := testSpec()
	st, err := m.Submit(spec, testCircuit(t))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m, st.ID, StateRunning)
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		job, _ := m.Get(st.ID)
		s := job.Status(false)
		if s.State == StateCancelled || s.State == StateDone {
			// Done is possible if the last step finished before the cancel
			// landed; both are acceptable terminal outcomes.
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", s.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobTimeoutReturnsBestSoFar: a job with a tiny deadline must complete
// as done (not failed), flagged timed_out, with a valid best-so-far graph —
// on either transport. The timed-out result depends on the deadline, not on
// the job's key, so an identical submission without a timeout is not a
// cache hit.
func TestJobTimeoutReturnsBestSoFar(t *testing.T) {
	for _, tr := range transports {
		t.Run(string(tr), func(t *testing.T) {
			m, stop := startRig(t, tr, Config{Dir: t.TempDir()})
			defer stop()
			spec := testSpec()
			spec.TimeoutSec = 0.000001 // expires before the first step commits
			st, err := m.Submit(spec, testCircuit(t))
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			final := waitState(t, m, st.ID, StateDone)
			if !final.TimedOut {
				t.Fatal("job not flagged timed_out")
			}
			if final.Reason != "deadline" {
				t.Fatalf("reason %q, want deadline", final.Reason)
			}
			g, err := ParseCircuit("aag", graphAAG(t, m, st.ID))
			if err != nil {
				t.Fatalf("parsing result: %v", err)
			}
			if g.NumAnds() == 0 {
				t.Fatal("best-so-far graph is empty")
			}
			again, err := m.Submit(testSpec(), testCircuit(t))
			if err != nil {
				t.Fatalf("resubmission: %v", err)
			}
			if again.CacheHit {
				t.Fatal("a timed-out result answered a submission without a deadline")
			}
		})
	}
}

// TestDaemonDuplicateSubmissionCacheHit: the daemon answers a repeated
// submission from its content-addressed store — done at once, never
// computed, with the stored summary and the identical result bytes.
func TestDaemonDuplicateSubmissionCacheHit(t *testing.T) {
	m, stop := startManager(t, Config{Dir: t.TempDir()})
	defer stop()
	circuit := testCircuit(t)
	st1, err := m.Submit(testSpec(), circuit)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	first := waitState(t, m, st1.ID, StateDone)
	st2, err := m.Submit(testSpec(), circuit)
	if err != nil {
		t.Fatalf("duplicate Submit: %v", err)
	}
	if !st2.CacheHit || st2.State != StateDone || st2.Key != first.Key {
		t.Fatalf("duplicate = %+v, want an instant cache hit on key %s", st2, first.Key)
	}
	if st2.Iterations != first.Iterations || st2.FinalError != first.FinalError || st2.Reason != first.Reason {
		t.Fatalf("cache hit lost the stored summary: %+v vs %+v", st2, first)
	}
	if !bytes.Equal(graphAAG(t, m, st1.ID), graphAAG(t, m, st2.ID)) {
		t.Fatal("cache hit served different bytes")
	}
	if got := fmt.Sprint(metric(t, m, "alsrac_cluster_cache_hits_total"), metric(t, m, "alsrac_lacs_applied_total")); got != fmt.Sprint(1, first.Applied) {
		t.Fatalf("cache hits / LACs applied = %s, want 1 %d (the duplicate never ran)", got, first.Applied)
	}
}

// TestSubmitRejectsBadInput: malformed circuits and specs fail at submit
// time, never reaching a worker.
func TestSubmitRejectsBadInput(t *testing.T) {
	m, err := New(Config{Dir: t.TempDir(), Now: time.Now})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := m.Submit(testSpec(), []byte("not a circuit")); err == nil {
		t.Fatal("garbage circuit accepted")
	}
	bad := testSpec()
	bad.Metric = "wer"
	if _, err := m.Submit(bad, testCircuit(t)); err == nil {
		t.Fatal("unknown metric accepted")
	}
	if len(m.Jobs()) != 0 {
		t.Fatalf("%d jobs registered after rejected submissions", len(m.Jobs()))
	}
}

// TestSubmitQueueFull: beyond QueueSize, Submit must fail with ErrQueueFull
// and leave no trace in memory or on disk.
func TestSubmitQueueFull(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Config{Dir: dir, QueueSize: 1, Now: time.Now})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// No Run: the single queue slot fills and stays full.
	if _, err := m.Submit(testSpec(), testCircuit(t)); err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	_, err = m.Submit(testSpec(), testCircuit(t))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second Submit: %v, want ErrQueueFull", err)
	}
	if n := len(m.Jobs()); n != 1 {
		t.Fatalf("%d jobs after rollback, want 1", n)
	}
	entries, _ := os.ReadDir(filepath.Join(dir, "jobs"))
	dirs := 0
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "j") {
			dirs++
		}
	}
	if dirs != 1 {
		t.Fatalf("%d job dirs on disk after rollback, want 1", dirs)
	}
}

// TestRestartServesTerminalJobs: a manager over a directory with finished
// jobs must serve their status and results without re-running anything.
func TestRestartServesTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	circuit := testCircuit(t)
	spec := testSpec()
	_, wantAAG := referenceRun(t, spec, circuit)

	m1, stop1 := startManager(t, Config{Dir: dir})
	st, err := m1.Submit(spec, circuit)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m1, st.ID, StateDone)
	stop1()

	m2, err := New(Config{Dir: dir, Now: time.Now})
	if err != nil {
		t.Fatalf("New after restart: %v", err)
	}
	// No Run needed: the job is terminal.
	job, ok := m2.Get(st.ID)
	if !ok {
		t.Fatal("finished job not recovered")
	}
	if s := job.Status(false); s.State != StateDone {
		t.Fatalf("recovered state %s, want done", s.State)
	}
	if !bytes.Equal(graphAAG(t, m2, st.ID), wantAAG) {
		t.Fatal("recovered result differs from reference")
	}
	// IDs continue after the recovered job rather than colliding with it.
	st2, err := m2.Submit(spec, circuit)
	if err != nil {
		t.Fatalf("Submit after restart: %v", err)
	}
	if st2.ID <= st.ID {
		t.Fatalf("new id %s does not follow recovered id %s", st2.ID, st.ID)
	}
}

// TestEventStreamSeesStepsAndTerminalState: a subscriber receives every
// step event plus the terminal transition, and the channel closes.
func TestEventStreamSeesStepsAndTerminalState(t *testing.T) {
	m, stop := startManager(t, Config{Dir: t.TempDir()})
	defer stop()
	st, err := m.Submit(testSpec(), testCircuit(t))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	job, _ := m.Get(st.ID)
	replay, live, unsub := job.Subscribe(0)
	defer unsub()
	events := append([]Event(nil), replay...)
	timeout := time.After(60 * time.Second)
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				goto donestream
			}
			events = append(events, ev)
		case <-timeout:
			t.Fatal("event stream never terminated")
		}
	}
donestream:
	steps, doneSteps, terminal := 0, 0, false
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Step != nil {
			steps++
			if ev.Step.Done {
				doneSteps++
			}
		}
		if ev.State.Terminal() {
			terminal = true
		}
	}
	if doneSteps != 1 {
		t.Fatalf("saw %d Done step events, want exactly 1", doneSteps)
	}
	if !terminal {
		t.Fatal("no terminal state event observed")
	}
	final := waitState(t, m, st.ID, StateDone)
	// One step event per iteration; the terminating event either rides on
	// the final iteration (threshold hit) or is its own extra step (stall).
	if steps != final.Iterations && steps != final.Iterations+1 {
		t.Fatalf("saw %d step events for %d iterations", steps, final.Iterations)
	}
}

// TestMetricsExposition: after a completed job the Prometheus endpoint must
// report consistent counters.
func TestMetricsExposition(t *testing.T) {
	m, stop := startManager(t, Config{Dir: t.TempDir()})
	defer stop()
	st, err := m.Submit(testSpec(), testCircuit(t))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitState(t, m, st.ID, StateDone)
	var buf bytes.Buffer
	m.Registry().WritePrometheus(&buf)
	text := buf.String()
	for _, want := range []string{
		"alsrac_jobs_submitted_total 1",
		`alsrac_jobs{state="done"} 1`,
		`alsrac_jobs{state="queued"} 0`,
		"alsrac_queue_depth 0",
		"# TYPE alsrac_step_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
	if got := metric(t, m, "alsrac_iterations_total"); got != float64(final.Iterations) {
		t.Fatalf("iterations counter %v, status says %d", got, final.Iterations)
	}
	if got := metric(t, m, "alsrac_lacs_applied_total"); got != float64(final.Applied) {
		t.Fatalf("lacs counter %v, status says %d", got, final.Applied)
	}
}
