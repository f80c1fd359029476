package service

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultfs"
)

// noSleep keeps retry backoff out of test wall-clock time.
func noSleep(time.Duration) {}

// TestWriteAtomicCrashNeverHalfVisible: for a crash at EVERY operation in the
// atomic-write sequence (create, write, sync, close, rename, dir sync), the
// target file afterwards holds either the complete old content or the
// complete new content — never a prefix — and the startup sweep leaves no
// temp residue behind.
func TestWriteAtomicCrashNeverHalfVisible(t *testing.T) {
	old := []byte(`{"state":"queued"}`)
	next := []byte(`{"state":"running","attempts":1}`)
	steps := []faultfs.Fault{
		{Op: faultfs.OpCreateTemp, N: 1, Crash: true},
		{Op: faultfs.OpWrite, PathSubstr: ".tmp-", N: 1, TornBytes: 5, Crash: true},
		{Op: faultfs.OpSync, PathSubstr: ".tmp-", N: 1, Crash: true},
		{Op: faultfs.OpClose, PathSubstr: ".tmp-", N: 1, Crash: true},
		{Op: faultfs.OpRename, PathSubstr: "state.json", N: 1, Crash: true},
		{Op: faultfs.OpSyncDir, N: 1, Crash: true},
	}
	for _, fault := range steps {
		t.Run(string(fault.Op), func(t *testing.T) {
			dir := t.TempDir()
			jd := filepath.Join(dir, "jobs", "j000001")
			if err := os.MkdirAll(jd, 0o755); err != nil {
				t.Fatal(err)
			}
			target := filepath.Join(jd, "state.json")
			if err := os.WriteFile(target, old, 0o644); err != nil {
				t.Fatal(err)
			}

			inj := faultfs.NewInjector(faultfs.OS{}, fault)
			err := (&retrier{sleep: noSleep}).write(inj, target, next)
			// Rename and dir-sync crashes may leave the NEW content visible
			// (the rename itself can have completed); everything earlier must
			// leave the OLD content. Either way: a complete version.
			got, rerr := os.ReadFile(target)
			if rerr != nil {
				t.Fatalf("target vanished after crash at %s: %v", fault.Op, rerr)
			}
			if string(got) != string(old) && string(got) != string(next) {
				t.Fatalf("half-visible artifact after crash at %s: %q", fault.Op, got)
			}
			if fault.Op != faultfs.OpSyncDir && err == nil {
				t.Fatalf("crash at %s reported no error", fault.Op)
			}

			// A fresh engine's startup scan sweeps any stranded temp file.
			if _, err := New(Config{Dir: dir, Now: time.Now}); err != nil {
				t.Fatalf("restart after crash: %v", err)
			}
			entries, _ := os.ReadDir(jd)
			for _, e := range entries {
				if strings.HasPrefix(e.Name(), ".tmp-") {
					t.Fatalf("temp residue %s survived the startup sweep", e.Name())
				}
			}
		})
	}
}

// TestWriteAtomicRetriesTransient: a transient errno mid-sequence is retried
// with a fresh temp file and succeeds; the sleep hook observes the backoff.
func TestWriteAtomicRetriesTransient(t *testing.T) {
	var slept []time.Duration
	retried := 0
	inj := faultfs.NewInjector(faultfs.OS{},
		faultfs.Fault{Op: faultfs.OpSync, PathSubstr: ".tmp-", N: 1, Err: syscall.ENOSPC},
	)
	r := &retrier{
		sleep:   func(d time.Duration) { slept = append(slept, d) },
		onRetry: func() { retried++ },
	}
	target := filepath.Join(t.TempDir(), "state.json")
	if err := r.write(inj, target, []byte("payload")); err != nil {
		t.Fatalf("writeAtomic did not recover from transient ENOSPC: %v", err)
	}
	if retried != 1 || len(slept) != 1 {
		t.Fatalf("retried %d times with %d sleeps, want 1 and 1", retried, len(slept))
	}
	if slept[0] <= 0 || slept[0] > retryMaxDelay {
		t.Fatalf("backoff %v outside (0, %v]", slept[0], retryMaxDelay)
	}
	if got, _ := os.ReadFile(target); string(got) != "payload" {
		t.Fatalf("target content %q after retry", got)
	}
}

// TestWriteAtomicFailsFastOnPermanent: a non-transient errno is not retried.
func TestWriteAtomicFailsFastOnPermanent(t *testing.T) {
	retried := 0
	inj := faultfs.NewInjector(faultfs.OS{},
		faultfs.Fault{Op: faultfs.OpSync, PathSubstr: ".tmp-", N: 1, Err: syscall.EACCES},
	)
	r := &retrier{sleep: noSleep, onRetry: func() { retried++ }}
	target := filepath.Join(t.TempDir(), "state.json")
	if err := r.write(inj, target, []byte("x")); err == nil {
		t.Fatal("permanent EACCES reported success")
	}
	if retried != 0 {
		t.Fatalf("permanent error retried %d times", retried)
	}
	if _, err := os.Stat(target); err == nil {
		t.Fatal("failed write left a visible target")
	}
}

// TestRetryGivesUpAfterBudget: a fault on every attempt exhausts the retry
// budget and surfaces the final transient error.
func TestRetryGivesUpAfterBudget(t *testing.T) {
	calls, retries := 0, 0
	r := &retrier{sleep: noSleep, onRetry: func() { retries++ }}
	err := r.do("k", func() error {
		calls++
		return fmt.Errorf("wrapped: %w", syscall.EAGAIN)
	})
	if err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if calls != retryAttempts || retries != retryAttempts-1 {
		t.Fatalf("calls %d / retries %d, want %d / %d", calls, retries, retryAttempts, retryAttempts-1)
	}
}

// TestBackoffDelayDeterministicCappedJittered pins the backoff contract:
// same (key, attempt) → same delay; each delay sits in [d/2, d] for the
// doubling window d; the window caps at retryMaxDelay.
func TestBackoffDelayDeterministicCappedJittered(t *testing.T) {
	for attempt := 1; attempt <= 10; attempt++ {
		d1 := backoffDelay("some/path", attempt)
		d2 := backoffDelay("some/path", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: nondeterministic delay %v vs %v", attempt, d1, d2)
		}
		window := retryBaseDelay << (attempt - 1)
		if window <= 0 || window > retryMaxDelay {
			window = retryMaxDelay
		}
		if d1 < window/2 || d1 > window {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d1, window/2, window)
		}
	}
	if backoffDelay("a", 1) == backoffDelay("b", 1) &&
		backoffDelay("a", 2) == backoffDelay("b", 2) &&
		backoffDelay("a", 3) == backoffDelay("b", 3) {
		t.Fatal("jitter ignores the key: concurrent retries would stampede in lockstep")
	}
}

// TestCheckpointGenerationsRotateAndPrune: successive checkpoints produce
// ascending generations in the CAS, only the newest keepGenerations
// survive, and the listing is newest-first.
func TestCheckpointGenerationsRotateAndPrune(t *testing.T) {
	c, err := NewCAS(t.TempDir(), faultfs.OS{})
	if err != nil {
		t.Fatal(err)
	}
	const key = "0123456789abcdef"
	for i := 1; i <= 5; i++ {
		if err := c.PutCheckpoint(key, []byte(fmt.Sprintf("gen%d", i))); err != nil {
			t.Fatalf("PutCheckpoint %d: %v", i, err)
		}
	}
	gens := c.gens(key)
	if fmt.Sprint(gens) != "[5 4 3]" {
		t.Fatalf("generations %v survive, want [5 4 3]", gens)
	}
	for _, n := range gens {
		blob, err := os.ReadFile(filepath.Join(c.keyDir(key), genName(n)))
		if err != nil {
			t.Fatal(err)
		}
		payload, err := unframe(blob)
		if want := fmt.Sprintf("gen%d", n); err != nil || string(payload) != want {
			t.Fatalf("%s holds (%q, %v), want %q", genName(n), payload, err, want)
		}
	}
	if !c.HasCheckpoint(key) {
		t.Fatal("HasCheckpoint false with generations present")
	}
}

// TestCheckpointFailureKeepsOldGenerations: when writing a new generation
// fails permanently, the previous generations are untouched.
func TestCheckpointFailureKeepsOldGenerations(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS{},
		faultfs.Fault{Op: faultfs.OpRename, PathSubstr: "checkpoint.", N: 2, Err: syscall.EACCES},
	)
	c, err := NewCAS(t.TempDir(), inj)
	if err != nil {
		t.Fatal(err)
	}
	c.retry.sleep = noSleep
	const key = "0123456789abcdef"
	if err := c.PutCheckpoint(key, []byte("good")); err != nil {
		t.Fatalf("first checkpoint: %v", err)
	}
	if err := c.PutCheckpoint(key, []byte("doomed")); err == nil {
		t.Fatal("faulted checkpoint reported success")
	}
	if gens := c.gens(key); fmt.Sprint(gens) != "[1]" {
		t.Fatalf("surviving generations %v, want only generation 1", gens)
	}
	if payload, gen, _ := c.LatestCheckpoint(key); gen != 1 || string(payload) != "good" {
		t.Fatalf("surviving generation = (%q, %d), want (good, 1)", payload, gen)
	}
}
