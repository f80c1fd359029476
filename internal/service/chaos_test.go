package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultfs"
	. "repro/internal/service"
)

// This file is the deterministic chaos matrix: every scenario runs the real
// engine over a real store with a seeded faultfs schedule (or a
// hand-corrupted checkpoint, or a network fault schedule), on each
// transport it applies to — the engine's in-process worker and a remote
// worker over the cluster wire — and asserts the hardened invariant: an
// injected fault ends in a correct resume, a clean generation fallback, or
// an explicit terminal state. Never a hang (every wait has a deadline),
// never a lost job, never engine death (the rig's stop asserts every worker
// exits and no goroutine leaks).

func chaosConfig(dir string, fsys faultfs.FS) Config {
	return Config{Dir: dir, FS: fsys, Workers: 1, CheckpointEvery: 1}
}

// eventMessages returns a job's event log for content assertions.
func eventMessages(t *testing.T, m *Manager, id string) []Event {
	t.Helper()
	job, ok := m.Get(id)
	if !ok {
		t.Fatalf("job %s disappeared", id)
	}
	replay, _, unsub := job.Subscribe(0)
	unsub()
	return replay
}

func hasMessage(events []Event, substr string) bool {
	for _, ev := range events {
		if strings.Contains(ev.Message, substr) {
			return true
		}
	}
	return false
}

// generations returns the job's checkpoint generation files in the CAS,
// oldest first (the zero-padded names sort lexically).
func generations(t *testing.T, dir, key string) []string {
	t.Helper()
	gens, err := filepath.Glob(filepath.Join(dir, "cas", key[:2], key, "checkpoint.*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(gens)
	return gens
}

// corruptFile flips a run of bytes in the middle of a file in place.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	if len(data) < 16 {
		t.Fatalf("%s too short to corrupt meaningfully (%d bytes)", path, len(data))
	}
	for i := len(data) / 2; i < len(data)/2+8; i++ {
		data[i] ^= 0xA5
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("writing %s: %v", path, err)
	}
}

// assertNoTempResidue fails if any interrupted-write temp file is visible in
// dir (the atomic-write discipline must clean up or the next startup sweep
// must).
func assertNoTempResidue(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("temp residue %s visible in %s", e.Name(), dir)
		}
	}
}

// panicEveryLoad panics on the next n circuit reads.
func panicEveryLoad(n int) []faultfs.Fault {
	fs := make([]faultfs.Fault, n)
	for i := range fs {
		fs[i] = faultfs.Fault{Op: faultfs.OpReadFile, PathSubstr: "/circuit", N: 1, Panic: true}
	}
	return fs
}

// TestChaosInjectedFaultsStillConverge is the fault matrix: each scenario
// arms one fault schedule and requires the job to end in the expected
// terminal state with the bitwise-reference result where it completes. The
// disk faults cover torn checkpoint writes (non-transient: the checkpoint is
// sacrificed, the run continues), transient errnos on sync and rename
// (retried to success, counted in store_retries), and panics while loading
// the circuit (isolated to the attempt; a one-shot panic costs one retry, a
// panic on every load quarantines the job). The network scenario drops,
// delays and truncates a remote worker's requests over a poisoned
// checkpoint.
func TestChaosInjectedFaultsStillConverge(t *testing.T) {
	circuit := testCircuit(t)
	spec := testSpec()
	want, wantAAG := referenceRun(t, spec, circuit)

	scenarios := []struct {
		name        string
		transports  []transport
		schedule    []faultfs.Fault
		net         []faultfs.NetFault
		poison      bool // a checkpoint that does not restore waits in the store
		wantState   State
		wantRetries bool
		wantError   map[transport]string // substring of the final error
	}{
		{
			name:       "torn checkpoint write is sacrificed",
			transports: transports,
			schedule: []faultfs.Fault{
				{Op: faultfs.OpWrite, PathSubstr: "/cas/", N: 2, TornBytes: 10},
			},
			wantState: StateDone,
		},
		{
			name:       "ENOSPC on checkpoint sync is retried",
			transports: transports,
			schedule: []faultfs.Fault{
				{Op: faultfs.OpSync, PathSubstr: "/cas/", N: 1, Err: syscall.ENOSPC},
			},
			wantState:   StateDone,
			wantRetries: true,
		},
		{
			name:       "EBUSY on state rename is retried",
			transports: transports,
			schedule: []faultfs.Fault{
				{Op: faultfs.OpRename, PathSubstr: "state.json", N: 2, Err: syscall.EBUSY},
			},
			wantState:   StateDone,
			wantRetries: true,
		},
		{
			name:       "EACCES on checkpoint temp fails that checkpoint only",
			transports: transports,
			schedule: []faultfs.Fault{
				{Op: faultfs.OpCreateTemp, PathSubstr: "/cas/", N: 1, Err: syscall.EACCES},
			},
			wantState: StateDone,
		},
		{
			// In process the panic unwinds the worker, which reports it
			// with its stack and retries; over HTTP it unwinds the serving
			// handler and the remote worker's fetch retry absorbs it.
			name:       "panic while loading the circuit is isolated",
			transports: transports,
			schedule:   panicEveryLoad(1),
			wantState:  StateDone,
		},
		{
			name:       "panic on every circuit load is quarantined",
			transports: transports,
			schedule:   panicEveryLoad(16),
			wantState:  StateQuarantined,
			wantError:  map[transport]string{inproc: "worker panic", overHTTP: "circuit"},
		},
		{
			name:       "network faults over a poisoned checkpoint",
			transports: []transport{overHTTP},
			net: []faultfs.NetFault{
				{Method: http.MethodPost, PathSubstr: "/cluster/register", N: 1, Drop: true},
				{Method: http.MethodPost, PathSubstr: "/cluster/claim", N: 1, Drop: true},
				{Method: http.MethodGet, PathSubstr: "/checkpoint", N: 1, Truncate: 7, Truncated: true},
				{Method: http.MethodGet, PathSubstr: "/circuit", N: 1, Delay: 5 * time.Millisecond},
			},
			poison:    true,
			wantState: StateDone,
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for _, tr := range sc.transports {
				t.Run(string(tr), func(t *testing.T) {
					dir := t.TempDir()
					if sc.poison {
						// A previous owner left a checkpoint that does not
						// restore: claim advertises it, restore rejects it, and
						// the rebuild from the circuit converges to the same
						// answer.
						norm := spec
						if err := norm.Normalize(); err != nil {
							t.Fatal(err)
						}
						g, err := ParseCircuit(norm.Format, circuit)
						if err != nil {
							t.Fatal(err)
						}
						cas, err := NewCAS(filepath.Join(dir, "cas"), faultfs.OS{})
						if err != nil {
							t.Fatal(err)
						}
						if err := cas.PutCheckpoint(JobKey(norm, g), []byte("not a core snapshot")); err != nil {
							t.Fatal(err)
						}
					}
					inj := faultfs.NewInjector(faultfs.OS{}, sc.schedule...)
					var sleepMu sync.Mutex
					delays := 0
					net := faultfs.NewNetInjector(nil, func(time.Duration) {
						sleepMu.Lock()
						delays++
						sleepMu.Unlock()
					}, sc.net...)
					m, stop := startRig(t, tr, chaosConfig(dir, inj), net)
					defer stop()

					st, err := m.Submit(spec, circuit)
					if err != nil {
						t.Fatalf("Submit: %v", err)
					}
					final := waitTerminal(t, m, st.ID)
					if final.State != sc.wantState {
						t.Fatalf("job ended %s (error %q), want %s", final.State, final.Error, sc.wantState)
					}
					if want := sc.wantError[tr]; !strings.Contains(final.Error, want) {
						t.Fatalf("job error %q does not mention %q", final.Error, want)
					}
					if sc.wantState == StateDone {
						if final.FinalError != want.FinalError || final.Iterations != want.Iterations {
							t.Fatalf("faulted run diverged: %d iterations / error %v, reference %d / %v",
								final.Iterations, final.FinalError, want.Iterations, want.FinalError)
						}
						if !bytes.Equal(graphAAG(t, m, st.ID), wantAAG) {
							t.Fatal("faulted run result differs bitwise from reference")
						}
					}
					if len(sc.schedule) > 0 && sc.schedule[0].Panic && tr == inproc {
						checkPanicIsolated(t, m, st.ID, sc.wantState == StateDone)
					}
					stop() // the last state write has landed once the workers are gone
					if len(inj.Fired()) == 0 && len(sc.schedule) > 0 {
						t.Fatal("scenario fault never fired; schedule does not reach the intended path")
					}
					if fired := net.Fired(); len(fired) != len(sc.net) {
						t.Fatalf("%d of %d scheduled network faults fired: %v", len(fired), len(sc.net), fired)
					}
					if len(sc.net) > 0 && delays != 1 {
						t.Fatalf("delay fault slept %d times, want 1", delays)
					}
					if sc.wantRetries && metric(t, m, "alsrac_store_retries_total") == 0 {
						t.Fatal("transient fault did not bump store_retries")
					}
				})
			}
		})
	}
}

// checkPanicIsolated asserts a worker panic was counted and its stack
// captured in the job's event log, and — when the engine is healthy again —
// that it takes the next submission.
func checkPanicIsolated(t *testing.T, m *Manager, id string, healthy bool) {
	t.Helper()
	captured := false
	for _, ev := range eventMessages(t, m, id) {
		if strings.Contains(ev.Message, "worker panic") && strings.Contains(ev.Error, "goroutine") {
			captured = true
		}
	}
	if !captured {
		t.Fatal("no event carries the captured panic stack")
	}
	if metric(t, m, "alsrac_worker_panics_total") == 0 {
		t.Fatal("worker panic not counted")
	}
	if !healthy {
		return
	}
	circuit := testCircuit(t)
	next := testSpec()
	next.Seed = 4
	st, err := m.Submit(next, circuit)
	if err != nil {
		t.Fatalf("Submit after panic: %v", err)
	}
	_, nextAAG := referenceRun(t, next, circuit)
	waitState(t, m, st.ID, StateDone)
	if !bytes.Equal(graphAAG(t, m, st.ID), nextAAG) {
		t.Fatal("post-panic job result differs from reference")
	}
}

// TestChaosCrashPointThenResume kills persistence mid-checkpoint-rename (the
// crash point makes every later filesystem operation fail, as a real process
// death at that instant would) and then restarts over the same directory. The
// resumed run must restore the last durable generation and finish bitwise
// identical to the reference.
func TestChaosCrashPointThenResume(t *testing.T) {
	for _, tr := range transports {
		t.Run(string(tr), func(t *testing.T) {
			dir := t.TempDir()
			circuit := testCircuit(t)
			spec := testSpec()
			want, wantAAG := referenceRun(t, spec, circuit)

			inj := faultfs.NewInjector(faultfs.OS{},
				faultfs.Fault{Op: faultfs.OpRename, PathSubstr: "checkpoint.", N: 2, Crash: true},
			)
			m1, stop1 := startRig(t, tr, chaosConfig(dir, inj))
			st, err := m1.Submit(spec, circuit)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			deadline := time.Now().Add(60 * time.Second)
			for !inj.Crashed() {
				if time.Now().After(deadline) {
					t.Fatal("crash point never fired")
				}
				time.Sleep(time.Millisecond)
			}
			stop1() // the dead process's goroutines must still wind down cleanly

			// Durable state: generation 1 in the store, a stranded temp file
			// beside it (its cleanup failed too — the process was dead).
			gens := generations(t, dir, st.Key)
			if len(gens) != 1 || filepath.Base(gens[0]) != "checkpoint.000001" {
				t.Fatalf("durable generations %v, want only the first", gens)
			}

			m2, stop2 := startRig(t, tr, chaosConfig(dir, faultfs.OS{}))
			defer stop2()
			assertNoTempResidue(t, filepath.Dir(gens[0])) // startup sweep collected the stranded temp
			final := waitState(t, m2, st.ID, StateDone)
			if final.FinalError != want.FinalError || final.Iterations != want.Iterations {
				t.Fatalf("post-crash run diverged: %d iterations / error %v, reference %d / %v",
					final.Iterations, final.FinalError, want.Iterations, want.FinalError)
			}
			if !bytes.Equal(graphAAG(t, m2, st.ID), wantAAG) {
				t.Fatal("post-crash result differs bitwise from reference")
			}
			if metric(t, m2, "alsrac_resumes_total") == 0 {
				t.Fatal("post-crash run restarted from scratch: expected a checkpoint restore")
			}
		})
	}
}

// TestChaosCorruptGenerationFallsBack interrupts a run with several
// checkpoint generations in the store, corrupts the newest one, and
// restarts: the engine must fall back to the next generation (counting it
// and noting it in the event log) and still produce the bitwise-reference
// result. A second phase corrupts every generation: the job then restarts
// from the original circuit — same guarantee, more fallbacks.
func TestChaosCorruptGenerationFallsBack(t *testing.T) {
	for _, corruptAll := range []bool{false, true} {
		name := "newest generation"
		if corruptAll {
			name = "all generations"
		}
		t.Run(name, func(t *testing.T) {
			for _, tr := range transports {
				t.Run(string(tr), func(t *testing.T) {
					dir := t.TempDir()
					circuit := testCircuit(t)
					spec := testSpec()
					want, wantAAG := referenceRun(t, spec, circuit)

					m1, stop1 := startRig(t, tr, chaosConfig(dir, faultfs.OS{}))
					st, err := m1.Submit(spec, circuit)
					if err != nil {
						t.Fatalf("Submit: %v", err)
					}
					waitIterations(t, m1, st.ID, 3)
					stop1()
					job, _ := m1.Get(st.ID)
					if job.State().Terminal() {
						t.Skip("job outran the interrupt on this machine; nothing to corrupt")
					}

					gens := generations(t, dir, st.Key)
					if len(gens) == 0 {
						t.Fatal("no generations to corrupt")
					}
					if !corruptAll {
						gens = gens[len(gens)-1:]
					}
					for _, g := range gens {
						corruptFile(t, g)
					}

					m2, stop2 := startRig(t, tr, chaosConfig(dir, faultfs.OS{}))
					defer stop2()
					final := waitState(t, m2, st.ID, StateDone)
					if final.FinalError != want.FinalError || final.Iterations != want.Iterations {
						t.Fatalf("fallback run diverged: %d iterations / error %v, reference %d / %v",
							final.Iterations, final.FinalError, want.Iterations, want.FinalError)
					}
					if !bytes.Equal(graphAAG(t, m2, st.ID), wantAAG) {
						t.Fatal("fallback result differs bitwise from reference")
					}
					if metric(t, m2, "alsrac_checkpoint_fallback_total") == 0 {
						t.Fatal("corrupt generation did not bump checkpoint_fallback")
					}
					if !hasMessage(eventMessages(t, m2, st.ID), "checkpoint_fallback") {
						t.Fatal("no checkpoint_fallback note in the job's event log")
					}
					if !corruptAll && metric(t, m2, "alsrac_resumes_total") == 0 {
						t.Fatal("expected the older generation to restore")
					}
				})
			}
		})
	}
}

// seedJobDir fabricates an interrupted job on disk — spec, circuit, and a
// non-terminal state.json with the given failure count — exactly what a
// crash-looping engine leaves behind.
func seedJobDir(t *testing.T, dir, id string, spec JobSpec, circuit []byte, attempts int) {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	jd := filepath.Join(dir, "jobs", id)
	if err := os.MkdirAll(jd, 0o755); err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"spec.json":  specJSON,
		"circuit":    circuit,
		"state.json": []byte(fmt.Sprintf(`{"state":"running","attempts":%d}`, attempts)),
	} {
		if err := os.WriteFile(filepath.Join(jd, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readAttempts returns the failure counter persisted in a job's state.json.
func readAttempts(t *testing.T, dir, id string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "jobs", id, "state.json"))
	if err != nil {
		t.Fatalf("reading state.json: %v", err)
	}
	var ps struct{ Attempts int }
	if err := json.Unmarshal(data, &ps); err != nil {
		t.Fatalf("decoding state.json: %v", err)
	}
	return ps.Attempts
}

// TestChaosCrashLoopQuarantine walks a poison job through the failure
// budget: each engine start over the directory that finds the job
// unfinished counts one failure, and the start that brings the counter to
// MaxFailures parks the job in the terminal quarantined state — counted in
// jobs_quarantined, noted in the event log, directory preserved — instead
// of requeueing it again.
func TestChaosCrashLoopQuarantine(t *testing.T) {
	for _, tr := range transports {
		t.Run(string(tr), func(t *testing.T) {
			dir := t.TempDir()
			const id = "j000001"
			seedJobDir(t, dir, id, testSpec(), testCircuit(t), 0)

			// Two incarnations that die before the job checkpoints (the
			// engine is constructed — which counts the failure — but never
			// Run).
			for i := 1; i <= 2; i++ {
				m, err := New(Config{Dir: dir, Now: time.Now})
				if err != nil {
					t.Fatalf("incarnation %d: %v", i, err)
				}
				if got := readAttempts(t, dir, id); got != i {
					t.Fatalf("after incarnation %d: persisted attempts %d, want %d", i, got, i)
				}
				job, ok := m.Get(id)
				if !ok || job.State() != StateQueued {
					t.Fatalf("incarnation %d: job not requeued", i)
				}
			}

			// The third brings the counter to MaxFailures and quarantines.
			m, err := New(Config{Dir: dir, Now: time.Now})
			if err != nil {
				t.Fatalf("quarantining incarnation: %v", err)
			}
			job, ok := m.Get(id)
			if !ok {
				t.Fatal("quarantined job lost from the table")
			}
			if job.State() != StateQuarantined {
				t.Fatalf("job state %s, want quarantined", job.State())
			}
			if got := metric(t, m, "alsrac_jobs_quarantined_total"); got != 1 {
				t.Fatalf("jobs_quarantined counter %v, want 1", got)
			}
			if !hasMessage(eventMessages(t, m, id), "quarantined") {
				t.Fatal("no quarantine note in the event log")
			}
			for _, f := range []string{"spec.json", "circuit", "state.json"} {
				if _, err := os.Stat(filepath.Join(dir, "jobs", id, f)); err != nil {
					t.Fatalf("quarantine did not preserve %s: %v", f, err)
				}
			}

			// Quarantine is terminal and idempotent across restarts: the
			// workers of a further incarnation must idle (and exit cleanly),
			// never touching the job, and the counter counts the transition
			// only once.
			m2, stop2 := startRig(t, tr, Config{Dir: dir})
			time.Sleep(10 * time.Millisecond)
			if job2, _ := m2.Get(id); job2.State() != StateQuarantined {
				t.Fatalf("restart changed quarantined job to %s", job2.State())
			}
			if got := metric(t, m2, "alsrac_jobs_quarantined_total"); got != 0 {
				t.Fatal("already-quarantined job was re-counted as a new quarantine")
			}
			stop2()
		})
	}
}

// TestChaosCheckpointResetsAttempts proves the other edge of the quarantine
// rule: a recovered job that uploads one checkpoint has its failure counter
// reset, so steady progress survives any number of restarts without ever
// being quarantined.
func TestChaosCheckpointResetsAttempts(t *testing.T) {
	for _, tr := range transports {
		t.Run(string(tr), func(t *testing.T) {
			dir := t.TempDir()
			circuit := testCircuit(t)
			spec := testSpec()
			want, _ := referenceRun(t, spec, circuit)
			seedJobDir(t, dir, "j000001", spec, circuit, 1) // the restart makes it 2 of 3

			m, stop := startRig(t, tr, chaosConfig(dir, faultfs.OS{}))
			defer stop()
			final := waitState(t, m, "j000001", StateDone)
			if final.FinalError != want.FinalError {
				t.Fatalf("recovered run final error %v, reference %v", final.FinalError, want.FinalError)
			}
			if final.Attempts != 0 {
				t.Fatalf("attempts %d after successful run, want 0 (reset at first checkpoint)", final.Attempts)
			}
		})
	}
}

// TestChaosScheduleMatrixIsDeterministic re-runs one faulted scenario twice
// and requires the injector's firing record and the job outcome to be
// identical — the property that makes every failure in this file
// reproducible from its seed schedule.
func TestChaosScheduleMatrixIsDeterministic(t *testing.T) {
	circuit := testCircuit(t)
	spec := testSpec()

	run := func() (fired []string, final JobStatus) {
		dir := t.TempDir()
		inj := faultfs.NewInjector(faultfs.OS{},
			faultfs.Fault{Op: faultfs.OpSync, PathSubstr: "/cas/", N: 1, Err: syscall.ENOSPC},
			faultfs.Fault{Op: faultfs.OpRename, PathSubstr: "state.json", N: 2, Err: syscall.EBUSY},
		)
		m, stop := startManager(t, chaosConfig(dir, inj))
		st, err := m.Submit(spec, circuit)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		final = waitTerminal(t, m, st.ID)
		stop() // the worker's last state write lands before the record is read
		for _, f := range inj.Fired() {
			// Normalize the random temp suffix and the per-run directory so
			// the records compare by (operation, logical file).
			f = strings.ReplaceAll(f, dir, "<dir>")
			if i := strings.Index(f, ".tmp-"); i >= 0 {
				f = f[:i] + ".tmp-X"
			}
			fired = append(fired, f)
		}
		return fired, final
	}

	fired1, final1 := run()
	fired2, final2 := run()
	if fmt.Sprint(fired1) != fmt.Sprint(fired2) {
		t.Fatalf("fault firing records differ between identical runs:\n%v\n%v", fired1, fired2)
	}
	if final1.State != final2.State || final1.FinalError != final2.FinalError {
		t.Fatalf("outcomes differ between identical runs: %+v vs %+v", final1, final2)
	}
}
