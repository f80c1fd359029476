package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/service"
)

func TestJobKeyDeterministicAndSensitive(t *testing.T) {
	circuit := testCircuit(t)
	spec := testSpec()
	if err := spec.Normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	g, err := service.ParseCircuit(spec.Format, circuit)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	base := service.JobKey(spec, g)
	if base != service.JobKey(spec, g) {
		t.Fatalf("JobKey not deterministic")
	}

	// Result-relevant fields must change the key…
	seeded := spec
	seeded.Seed = 7
	if service.JobKey(seeded, g) == base {
		t.Fatalf("seed change did not change the key")
	}
	tighter := spec
	tighter.Threshold = 0.01
	if service.JobKey(tighter, g) == base {
		t.Fatalf("threshold change did not change the key")
	}

	// …and result-irrelevant fields must not: intra-job parallelism is
	// bitwise-invariant and a deadline changes only whether the run finishes.
	wide := spec
	wide.Workers = 8
	if service.JobKey(wide, g) != base {
		t.Fatalf("worker count leaked into the key")
	}
	timed := spec
	timed.TimeoutSec = 30
	if service.JobKey(timed, g) != base {
		t.Fatalf("timeout leaked into the key")
	}
}

// TestDuplicateSubmissionCacheHit is the acceptance-criterion test: once a
// worker — in process or remote — has computed a job, the second
// submission of identical work never reaches a worker, and the hit is
// visible on the cache-hit metric.
func TestDuplicateSubmissionCacheHit(t *testing.T) {
	for _, tr := range []string{"inproc", "http"} {
		t.Run(tr, func(t *testing.T) {
			co, srv, stop := startCluster(t, tr, service.Config{})
			defer stop()
			circuit := testCircuit(t)

			st1, err := co.Submit(testSpec(), circuit)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if st1.CacheHit || st1.State != service.StateQueued {
				t.Fatalf("first submission: %+v, want queued miss", st1)
			}
			first := waitClusterState(t, srv, st1.ID, service.StateDone)

			st2, err := co.Submit(testSpec(), circuit)
			if err != nil {
				t.Fatalf("duplicate Submit: %v", err)
			}
			if !st2.CacheHit || st2.State != service.StateDone {
				t.Fatalf("duplicate submission: %+v, want instant cache-hit done", st2)
			}
			if st2.Key != st1.Key {
				t.Fatalf("duplicate derived a different key: %s vs %s", st2.Key, st1.Key)
			}
			if st2.Iterations != first.Iterations || st2.Reason != first.Reason {
				t.Fatalf("cache hit lost the stored summary: %+v", st2)
			}
			if got := metric(t, co, "alsrac_cluster_cache_hits_total"); got != 1 {
				t.Fatalf("cache-hit metric = %v, want 1", got)
			}
			if got := metric(t, co, "alsrac_cluster_cache_misses_total"); got != 1 {
				t.Fatalf("cache-miss metric = %v, want 1", got)
			}
			// Nothing left for workers: the duplicate must not be claimable.
			w := register(t, co, "w1")
			if _, ok, _ := co.Claim(bg, w.WorkerID); ok {
				t.Fatalf("cache-hit job handed to a worker")
			}
			// Both ids serve the identical result bytes.
			a1, err := co.ResultAAG(st1.ID)
			if err != nil {
				t.Fatalf("ResultAAG(%s): %v", st1.ID, err)
			}
			a2, err := co.ResultAAG(st2.ID)
			if err != nil {
				t.Fatalf("ResultAAG(%s): %v", st2.ID, err)
			}
			if !bytes.Equal(a1, a2) {
				t.Fatalf("cache hit served different bytes")
			}
		})
	}
}

// resultPath is where the CAS under dir keeps a key's result.
func resultPath(dir, key string) string {
	return filepath.Join(dir, "cas", key[:2], key, "result")
}

// renameHookFS calls hook before every rename: the commit point of every
// atomic write, CAS entries and job state files alike.
type renameHookFS struct {
	faultfs.FS
	hook func(newpath string)
}

func (f renameHookFS) Rename(oldpath, newpath string) error {
	f.hook(newpath)
	return f.FS.Rename(oldpath, newpath)
}

// TestResultStoredBeforeDone: a job must never be observable as done
// without its result in the content-addressed store, or a resubmission
// arriving right after "done" misses the cache. The store is checked at
// every write the upload commits, whenever the job already reads done.
func TestResultStoredBeforeDone(t *testing.T) {
	clk := newFakeClock()
	var co *service.Manager
	var jobID, dir string
	checked := 0
	co = newTestCoord(t, clk, func(cfg *service.Config) {
		dir = cfg.Dir
		cfg.FS = renameHookFS{FS: faultfs.OS{}, hook: func(string) {
			// The engine writes no file under its lock, so the job can be
			// read from inside the write.
			if jobID == "" || status(t, co, jobID).State != service.StateDone {
				return
			}
			checked++
			if _, err := os.Stat(resultPath(dir, status(t, co, jobID).Key)); err != nil {
				t.Errorf("job %s is done but its result is not in the store: %v", jobID, err)
			}
		}}
	})
	circuit := testCircuit(t)
	st, err := co.Submit(testSpec(), circuit)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	w := register(t, co, "w1")
	claim, ok, err := co.Claim(bg, w.WorkerID)
	if err != nil || !ok {
		t.Fatalf("Claim = (%v, %t)", err, ok)
	}
	jobID = st.ID
	finishAttempt(t, co, claim, w.WorkerID, circuit)
	jobID = ""
	if checked == 0 {
		t.Fatal("no store write happened after the job went done")
	}
	if _, err := os.Stat(resultPath(dir, st.Key)); err != nil {
		t.Fatalf("result missing from the store after the upload: %v", err)
	}
	if dup, err := co.Submit(testSpec(), circuit); err != nil || !dup.CacheHit {
		t.Fatalf("resubmission after done = (%+v, %v), want a cache hit", dup, err)
	}
}

func TestLeaseExpiryReassignsFromCheckpoint(t *testing.T) {
	clk := newFakeClock()
	co := newTestCoord(t, clk, func(cfg *service.Config) {
		cfg.LeaseTTL = 10 * time.Second
	})
	circuit := testCircuit(t)

	st, err := co.Submit(testSpec(), circuit)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	w1 := register(t, co, "w1")
	w2 := register(t, co, "w2")

	claim1, ok, err := co.Claim(bg, w1.WorkerID)
	if err != nil || !ok {
		t.Fatalf("w1 claim = (%v, %t)", err, ok)
	}
	if claim1.HasCheckpoint {
		t.Fatalf("fresh job claims to have a checkpoint")
	}
	if err := co.UploadCheckpoint(bg, lease(claim1, w1.WorkerID), []byte("iteration-5-state")); err != nil {
		t.Fatalf("UploadCheckpoint: %v", err)
	}

	// w1 "dies" (no renewals); the lease expires and a sweep requeues.
	clk.Advance(11 * time.Second)
	if _, ok, _ := co.Claim(bg, w2.WorkerID); ok {
		t.Fatalf("claim succeeded while the job sat in redispatch backoff")
	}
	if got := status(t, co, st.ID); got.State != service.StateQueued || got.Redispatches != 1 {
		t.Fatalf("after expiry: %+v, want queued with 1 redispatch", got)
	}
	if got := fmt.Sprint(metric(t, co, "alsrac_cluster_leases_expired_total"), metric(t, co, "alsrac_cluster_reassignments_total")); got != "1 1" {
		t.Fatalf("expiry metrics = (%s), want (1 1)", got)
	}

	// Past the redispatch backoff, w2 inherits the job *with* the dead
	// worker's checkpoint.
	clk.Advance(time.Minute)
	claim2, ok, err := co.Claim(bg, w2.WorkerID)
	if err != nil || !ok {
		t.Fatalf("w2 claim = (%v, %t)", err, ok)
	}
	if claim2.JobID != st.ID || !claim2.HasCheckpoint {
		t.Fatalf("w2 claim = %+v, want job %s with checkpoint", claim2, st.ID)
	}
	ckpt, ok, err := co.Checkpoint(bg, claim2.JobID)
	if err != nil || !ok || string(ckpt) != "iteration-5-state" {
		t.Fatalf("Checkpoint = (%q, %t, %v)", ckpt, ok, err)
	}

	// The dead worker's stale attempt is gone: any late upload gets 409.
	if err := co.UploadCheckpoint(bg, lease(claim1, w1.WorkerID), []byte("zombie")); !errors.Is(err, service.ErrLeaseLost) {
		t.Fatalf("zombie upload error = %v, want ErrLeaseLost", err)
	}
	finishAttempt(t, co, claim2, w2.WorkerID, circuit)
	if got := status(t, co, st.ID); got.State != service.StateDone {
		t.Fatalf("final state %s, want done", got.State)
	}
}

func TestHedgeFirstFinisherWins(t *testing.T) {
	clk := newFakeClock()
	co := newTestCoord(t, clk, func(cfg *service.Config) {
		cfg.LeaseTTL = time.Hour // leases never expire in this test
	})
	circuit := testCircuit(t)
	w1 := register(t, co, "w1")
	w2 := register(t, co, "w2")

	// Seed the duration histogram with the five fast completions hedging
	// waits for; the threshold is then its 1 s floor.
	for i := 0; i < 5; i++ {
		warm := testSpec()
		warm.Seed = int64(11 + i)
		stWarm, err := co.Submit(warm, circuit)
		if err != nil {
			t.Fatalf("Submit warm: %v", err)
		}
		cw, ok, _ := co.Claim(bg, w1.WorkerID)
		if !ok || cw.JobID != stWarm.ID {
			t.Fatalf("warm claim = %+v", cw)
		}
		clk.Advance(10 * time.Millisecond)
		finishAttempt(t, co, cw, w1.WorkerID, circuit)
	}

	// The real job: w1 owns it and stalls past the hedge threshold.
	st, err := co.Submit(testSpec(), circuit)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	c1, ok, _ := co.Claim(bg, w1.WorkerID)
	if !ok || c1.JobID != st.ID {
		t.Fatalf("w1 claim = %+v", c1)
	}
	// w1 itself must never be offered a hedge of its own job.
	if _, ok, _ := co.Claim(bg, w1.WorkerID); ok {
		t.Fatalf("owner was offered a hedge of its own job")
	}
	// Too early for a hedge.
	clk.Advance(900 * time.Millisecond)
	if _, ok, _ := co.Claim(bg, w2.WorkerID); ok {
		t.Fatalf("hedge granted before the straggler threshold")
	}
	clk.Advance(100 * time.Millisecond)
	c2, ok, err := co.Claim(bg, w2.WorkerID)
	if err != nil || !ok {
		t.Fatalf("hedge claim = (%v, %t)", err, ok)
	}
	if c2.JobID != st.ID || !c2.Hedge {
		t.Fatalf("hedge claim = %+v, want hedge of %s", c2, st.ID)
	}
	if got := metric(t, co, "alsrac_cluster_hedges_total"); got != 1 {
		t.Fatalf("hedges metric = %v, want 1", got)
	}
	// A job with a live hedge is not hedged again.
	w3 := register(t, co, "w3")
	if _, ok, _ := co.Claim(bg, w3.WorkerID); ok {
		t.Fatalf("double hedge granted")
	}

	// Hedge finishes first; the primary's late result is a 409.
	finishAttempt(t, co, c2, w2.WorkerID, circuit)
	if err := co.UploadResult(bg, lease(c1, w1.WorkerID), service.ResultSummary{}, circuit); !errors.Is(err, service.ErrLeaseLost) {
		t.Fatalf("loser result error = %v, want ErrLeaseLost", err)
	}
	if err := co.Renew(bg, lease(c1, w1.WorkerID)); !errors.Is(err, service.ErrLeaseLost) {
		t.Fatalf("loser renew error = %v, want ErrLeaseLost", err)
	}
	got := status(t, co, st.ID)
	if got.State != service.StateDone || !got.Hedged {
		t.Fatalf("final status %+v, want done+hedged", got)
	}
	if got := metric(t, co, "alsrac_cluster_hedge_wins_total"); got != 1 {
		t.Fatalf("hedge wins metric = %v, want 1", got)
	}
}

func TestPoisonJobQuarantinedAfterDistinctWorkerFailures(t *testing.T) {
	clk := newFakeClock()
	co := newTestCoord(t, clk, func(cfg *service.Config) {
		cfg.MaxFailures = 2
		cfg.LeaseTTL = 10 * time.Second
	})
	circuit := testCircuit(t)
	st, err := co.Submit(testSpec(), circuit)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	w1 := register(t, co, "w1")
	w2 := register(t, co, "w2")

	// Round 1: w1 claims and dies.
	if c, ok, _ := co.Claim(bg, w1.WorkerID); !ok || c.JobID != st.ID {
		t.Fatalf("w1 claim failed")
	}
	clk.Advance(11 * time.Second)
	co.Jobs() // the sweep runs at API entries
	if got := status(t, co, st.ID); got.State != service.StateQueued {
		t.Fatalf("after first death: %s, want queued", got.State)
	}

	// Round 2: w2 claims the requeued job and dies too — second *distinct*
	// worker, so the job is quarantined, not requeued again.
	clk.Advance(time.Minute)
	if c, ok, _ := co.Claim(bg, w2.WorkerID); !ok || c.JobID != st.ID {
		t.Fatalf("w2 claim failed")
	}
	clk.Advance(11 * time.Second)
	co.Jobs()
	got := status(t, co, st.ID)
	if got.State != service.StateQuarantined {
		t.Fatalf("after second death: %s, want quarantined", got.State)
	}
	if got := metric(t, co, "alsrac_jobs_quarantined_total"); got != 1 {
		t.Fatalf("quarantined metric = %v, want 1", got)
	}
	// A quarantined job is never handed out again.
	clk.Advance(time.Hour)
	w3 := register(t, co, "w3")
	if _, ok, _ := co.Claim(bg, w3.WorkerID); ok {
		t.Fatalf("quarantined job claimed")
	}
}

func TestWorkerReportedFailureCountsTowardQuarantine(t *testing.T) {
	clk := newFakeClock()
	co := newTestCoord(t, clk, func(cfg *service.Config) {
		cfg.MaxFailures = 2
	})
	circuit := testCircuit(t)
	st, _ := co.Submit(testSpec(), circuit)
	w1 := register(t, co, "w1")
	w2 := register(t, co, "w2")

	c1, _, _ := co.Claim(bg, w1.WorkerID)
	if err := co.Fail(bg, lease(c1, w1.WorkerID), "panic: divisor table", ""); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	if got := status(t, co, st.ID); got.State != service.StateQueued || got.Redispatches != 1 {
		t.Fatalf("after reported failure: %+v", got)
	}
	clk.Advance(time.Minute)
	c2, ok, _ := co.Claim(bg, w2.WorkerID)
	if !ok {
		t.Fatalf("redispatch claim failed")
	}
	if err := co.Fail(bg, lease(c2, w2.WorkerID), "panic: divisor table", ""); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	if got := status(t, co, st.ID); got.State != service.StateQuarantined {
		t.Fatalf("after second reported failure: %s, want quarantined", got.State)
	}
}

func TestCoordinatorRecovery(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	circuit := testCircuit(t)
	mk := func() *service.Manager {
		co, err := service.New(service.Config{Dir: dir, Now: clk.Now, Logf: t.Logf})
		if err != nil {
			t.Fatalf("service.New: %v", err)
		}
		return co
	}

	co1 := mk()
	stDone, err := co1.Submit(testSpec(), circuit)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	w := register(t, co1, "w1")
	c, _, _ := co1.Claim(bg, w.WorkerID)
	if err := co1.UploadCheckpoint(bg, lease(c, w.WorkerID), []byte("ckpt")); err != nil {
		t.Fatalf("UploadCheckpoint: %v", err)
	}
	finishAttempt(t, co1, c, w.WorkerID, circuit)
	other := testSpec()
	other.Seed = 99
	stOpen, err := co1.Submit(other, circuit)
	if err != nil {
		t.Fatalf("Submit open: %v", err)
	}
	cw, _, _ := co1.Claim(bg, w.WorkerID)
	if cw.JobID != stOpen.ID {
		t.Fatalf("claimed %s, want %s", cw.JobID, stOpen.ID)
	}

	// Coordinator dies and restarts over the same dir.
	co2 := mk()
	if gotDone := status(t, co2, stDone.ID); gotDone.State != service.StateDone {
		t.Fatalf("recovered done job = %+v", gotDone)
	}
	aag, err := co2.ResultAAG(stDone.ID)
	if err != nil || !bytes.Equal(aag, circuit) {
		t.Fatalf("recovered result unreadable: %v", err)
	}
	if gotOpen := status(t, co2, stOpen.ID); gotOpen.State != service.StateQueued || gotOpen.Attempts != 1 {
		t.Fatalf("recovered open job = %+v, want requeued with the restart counted", gotOpen)
	}
	// Workers are not recovered: the old id is told to re-register, and new
	// ids never collide with pre-restart job numbering.
	if _, _, err := co2.Claim(bg, w.WorkerID); !errors.Is(err, service.ErrUnknownWorker) {
		t.Fatalf("stale worker claim error = %v, want ErrUnknownWorker", err)
	}
	w2 := register(t, co2, "w1-reborn")
	c2, ok, err := co2.Claim(bg, w2.WorkerID)
	if err != nil || !ok || c2.JobID != stOpen.ID {
		t.Fatalf("post-restart claim = (%+v, %t, %v)", c2, ok, err)
	}
	st3, err := co2.Submit(func() service.JobSpec { s := testSpec(); s.Seed = 123; return s }(), circuit)
	if err != nil {
		t.Fatalf("post-restart Submit: %v", err)
	}
	if st3.ID == stDone.ID || st3.ID == stOpen.ID {
		t.Fatalf("job id %s collided after restart", st3.ID)
	}
}

func TestResultCorruptionAfterDoneTriggersRecompute(t *testing.T) {
	clk := newFakeClock()
	var dir string
	co := newTestCoord(t, clk, func(cfg *service.Config) { dir = cfg.Dir })
	circuit := testCircuit(t)
	st, _ := co.Submit(testSpec(), circuit)
	w := register(t, co, "w1")
	c, _, _ := co.Claim(bg, w.WorkerID)
	finishAttempt(t, co, c, w.WorkerID, circuit)

	// Rot the CAS entry underneath the finished job.
	if err := os.Remove(resultPath(dir, st.Key)); err != nil {
		t.Fatalf("removing result: %v", err)
	}

	if _, err := co.ResultAAG(st.ID); !errors.Is(err, service.ErrNotDone) {
		t.Fatalf("ResultAAG on rotted entry = %v, want ErrNotDone", err)
	}
	got := status(t, co, st.ID)
	if got.State != service.StateQueued {
		t.Fatalf("rotted job state %s, want requeued for recompute", got.State)
	}
	// The recompute path works end to end: a worker claims it again.
	c2, ok, err := co.Claim(bg, w.WorkerID)
	if err != nil || !ok || c2.JobID != st.ID {
		t.Fatalf("recompute claim = (%+v, %t, %v)", c2, ok, err)
	}
}
