package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// partitionAfterCheckpoint simulates `kill -9` of a worker right after its
// first successful checkpoint upload: every subsequent request — renewals,
// further checkpoints, the result, even new claims — vanishes into the
// partition, exactly the silence a SIGKILLed process leaves behind. (Unlike
// ctx cancellation, a real kill gives the worker no chance to park a
// farewell checkpoint, and neither does this.)
type partitionAfterCheckpoint struct {
	base http.RoundTripper

	mu       sync.Mutex
	dropped  bool
	signaled chan struct{}
}

func newPartitionAfterCheckpoint() *partitionAfterCheckpoint {
	return &partitionAfterCheckpoint{base: http.DefaultTransport, signaled: make(chan struct{})}
}

func (p *partitionAfterCheckpoint) RoundTrip(req *http.Request) (*http.Response, error) {
	p.mu.Lock()
	if p.dropped {
		p.mu.Unlock()
		return nil, errors.New("partitioned: worker was killed")
	}
	p.mu.Unlock()
	resp, err := p.base.RoundTrip(req)
	if err == nil && req.Method == http.MethodPut && strings.Contains(req.URL.Path, "/checkpoint") {
		p.mu.Lock()
		if !p.dropped {
			p.dropped = true
			close(p.signaled)
		}
		p.mu.Unlock()
	}
	return resp, err
}

// startCluster runs an engine (cfg plus a real clock and a short poll) behind
// NewHandler on an httptest server, with one worker on the given transport:
// an in-process worker of the engine ("inproc") or a remote one ("http").
// stop shuts everything down.
func startCluster(t *testing.T, tr string, cfg service.Config) (*service.Manager, *httptest.Server, func()) {
	t.Helper()
	cfg.Dir, cfg.Now, cfg.PollInterval = t.TempDir(), time.Now, 2*time.Millisecond
	if tr == "inproc" {
		cfg.Workers = 1
	}
	co, err := service.New(cfg)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	srv := httptest.NewServer(NewHandler(co))
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		co.Run(ctx)
	}()
	if tr == "http" {
		startTestWorker(t, ctx, &wg, WorkerConfig{Join: srv.URL, Name: "remote", Now: time.Now, CheckpointEvery: 5})
	}
	return co, srv, func() {
		cancel()
		wg.Wait()
		srv.Close()
	}
}

func startTestWorker(t *testing.T, ctx context.Context, wg *sync.WaitGroup, cfg WorkerConfig) {
	t.Helper()
	wk, err := NewWorker(cfg)
	if err != nil {
		t.Fatalf("NewWorker(%s): %v", cfg.Name, err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = wk.Run(ctx)
	}()
}

func httpStatus(t *testing.T, srv *httptest.Server, id string) service.JobStatus {
	t.Helper()
	resp, err := http.Get(srv.URL + "/jobs/" + id)
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	defer resp.Body.Close()
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

func waitClusterState(t *testing.T, srv *httptest.Server, id string, want service.State) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for {
		st := httpStatus(t, srv, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (%s), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClusterKillAndResumeBitIdentity is the tentpole acceptance test: a job
// starts on remote worker A, worker A is killed mid-run right after a
// checkpoint upload, the lease expires, and a successor — a remote worker
// on a different "machine", or the engine's own in-process worker — resumes
// from A's checkpoint, producing a result byte-identical to an
// uninterrupted single-process run.
func TestClusterKillAndResumeBitIdentity(t *testing.T) {
	for _, successor := range []string{"inproc", "http"} {
		t.Run(successor, func(t *testing.T) {
			circuit := testCircuit(t)
			ref, refAAG := refRun(t, testSpec(), circuit)

			clk := newFakeClock()
			co := newTestCoord(t, clk, func(cfg *service.Config) {
				cfg.LeaseTTL = 10 * time.Second
				cfg.PollInterval = 2 * time.Millisecond
				if successor == "inproc" {
					cfg.Workers = 1 // started by Run after the kill
				}
			})
			srv := httptest.NewServer(NewHandler(co))
			defer srv.Close()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var wg sync.WaitGroup
			defer wg.Wait()
			defer cancel()

			part := newPartitionAfterCheckpoint()
			startTestWorker(t, ctx, &wg, WorkerConfig{
				Join:            srv.URL,
				Name:            "victim",
				Client:          &http.Client{Transport: part},
				Now:             clk.Now,
				CheckpointEvery: 5, // the CLA(16) job runs ~17 iterations: killed mid-run
				Logf:            t.Logf,
			})

			// Submit over HTTP, like a real client would.
			resp, err := http.Post(srv.URL+"/jobs?metric=er&threshold=0.05&seed=3&eval=1024&workers=1",
				"text/plain", bytes.NewReader(circuit))
			if err != nil {
				t.Fatalf("POST /jobs: %v", err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, body)
			}
			var st service.JobStatus
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatalf("decoding submit response: %v", err)
			}

			// Wait for the victim's first checkpoint; the partition drops at
			// that exact instant.
			select {
			case <-part.signaled:
			case <-time.After(60 * time.Second):
				t.Fatalf("victim never uploaded a checkpoint")
			}
			if metric(t, co, "alsrac_checkpoints_total") == 0 {
				t.Fatalf("checkpoint signal fired but the store holds none")
			}

			// The successor joins after the kill — it can only know the job
			// through the engine's store.
			if successor == "http" {
				startTestWorker(t, ctx, &wg, WorkerConfig{
					Join:            srv.URL,
					Name:            "successor",
					Now:             clk.Now,
					CheckpointEvery: 5,
					Logf:            t.Logf,
				})
			} else {
				wg.Add(1)
				go func() {
					defer wg.Done()
					co.Run(ctx)
				}()
			}

			// The victim's lease expires; the successor's claims sweep it out.
			clk.Advance(11 * time.Second)
			deadline := time.Now().Add(60 * time.Second)
			for httpStatus(t, srv, st.ID).Redispatches == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("lease never expired")
				}
				time.Sleep(2 * time.Millisecond)
			}
			// Past the redispatch backoff, the successor inherits and
			// finishes. The clock stays frozen from here on, so its own lease
			// cannot expire mid-run.
			clk.Advance(30 * time.Second)
			final := waitClusterState(t, srv, st.ID, service.StateDone)

			// Bit-identity across the kill: iterations, error and the full
			// circuit.
			if final.Iterations != ref.Iterations {
				t.Fatalf("resumed run took %d iterations, reference %d", final.Iterations, ref.Iterations)
			}
			if final.FinalError != ref.FinalError {
				t.Fatalf("resumed run error %v, reference %v", final.FinalError, ref.FinalError)
			}
			got, err := http.Get(srv.URL + "/jobs/" + st.ID + "/result")
			if err != nil {
				t.Fatalf("GET result: %v", err)
			}
			gotAAG, _ := io.ReadAll(got.Body)
			got.Body.Close()
			if !bytes.Equal(gotAAG, refAAG) {
				t.Fatalf("resumed result differs from reference run:\n got %d bytes\nwant %d bytes", len(gotAAG), len(refAAG))
			}

			// The fault-tolerance machinery actually engaged.
			for _, series := range []string{"alsrac_cluster_leases_expired_total", "alsrac_cluster_reassignments_total",
				"alsrac_cluster_checkpoints_total", "alsrac_resumes_total"} {
				if metric(t, co, series) <= 0 {
					t.Fatalf("%s did not move — the kill and resume never happened?", series)
				}
			}
		})
	}
}

// TestClusterSingleWorkerMatchesReference is the no-fault baseline: one
// worker, in process or remote, no kills, result bytes equal the reference
// run; a duplicate submission over HTTP is then an instant cache hit.
func TestClusterSingleWorkerMatchesReference(t *testing.T) {
	for _, tr := range []string{"inproc", "http"} {
		t.Run(tr, func(t *testing.T) {
			circuit := testCircuit(t)
			_, refAAG := refRun(t, testSpec(), circuit)
			co, srv, stop := startCluster(t, tr, service.Config{})
			defer stop()

			st, err := co.Submit(testSpec(), circuit)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			waitClusterState(t, srv, st.ID, service.StateDone)
			gotAAG, err := co.ResultAAG(st.ID)
			if err != nil {
				t.Fatalf("ResultAAG: %v", err)
			}
			if !bytes.Equal(gotAAG, refAAG) {
				t.Fatalf("cluster result differs from reference")
			}

			resp, err := http.Post(srv.URL+"/jobs?metric=er&threshold=0.05&seed=3&eval=1024&workers=1",
				"text/plain", bytes.NewReader(circuit))
			if err != nil {
				t.Fatalf("duplicate POST: %v", err)
			}
			var dup service.JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&dup); err != nil {
				t.Fatalf("decoding duplicate: %v", err)
			}
			resp.Body.Close()
			if !dup.CacheHit || dup.State != service.StateDone {
				t.Fatalf("duplicate = %+v, want instant cache hit", dup)
			}
			if got := metric(t, co, "alsrac_cluster_cache_hits_total"); got != 1 {
				t.Fatalf("cache-hit metric = %v, want 1", got)
			}
		})
	}
}

// TestLongStepKeepsLease: a step longer than the lease TTL must not lose
// the lease — the worker's heartbeat renews it every TTL/3 while the step
// runs — so the job finishes on its first attempt, with no expiry and no
// redispatch. The remote worker's clock sleeps on every reading, which
// stretches each step (two readings) past the TTL.
func TestLongStepKeepsLease(t *testing.T) {
	const ttl = 240 * time.Millisecond
	circuit := testCircuit(t)
	_, refAAG := refRun(t, testSpec(), circuit)
	co, err := service.New(service.Config{Dir: t.TempDir(), Now: time.Now, LeaseTTL: ttl, PollInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	srv := httptest.NewServer(NewHandler(co))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	slowNow := func() time.Time {
		time.Sleep(ttl * 5 / 8)
		return time.Now()
	}
	startTestWorker(t, ctx, &wg, WorkerConfig{Join: srv.URL, Name: "slow", Now: slowNow, Logf: t.Logf})

	st, err := co.Submit(testSpec(), circuit)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitClusterState(t, srv, st.ID, service.StateDone)
	if got := metric(t, co, "alsrac_cluster_leases_expired_total"); got != 0 || final.Redispatches != 0 {
		t.Fatalf("%v lease expiries and %d redispatches, want none", got, final.Redispatches)
	}
	if aag, err := co.ResultAAG(st.ID); err != nil || !bytes.Equal(aag, refAAG) {
		t.Fatalf("result differs from the reference (%v)", err)
	}
}

// TestClusterMetricsEndpoint spot-checks that the cluster series surface on
// GET /metrics in Prometheus text format.
func TestClusterMetricsEndpoint(t *testing.T) {
	clk := newFakeClock()
	co := newTestCoord(t, clk, nil)
	srv := httptest.NewServer(NewHandler(co))
	defer srv.Close()

	register(t, co, "w1")
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"alsrac_cluster_workers 1",
		"alsrac_cluster_cache_hits_total 0",
		"alsrac_jobs{state=\"queued\"} 0",
		"alsrac_cluster_job_seconds_bucket",
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestTornCheckpointUploadRejected drives the handler with a body shorter
// than its declared Content-Length — the shape a torn upload takes after a
// proxy dies mid-transfer — and requires the partial bytes never reach the
// store.
func TestTornCheckpointUploadRejected(t *testing.T) {
	clk := newFakeClock()
	co := newTestCoord(t, clk, nil)
	h := NewHandler(co)
	circuit := testCircuit(t)
	st, _ := co.Submit(testSpec(), circuit)
	w := register(t, co, "w1")
	claim, ok, _ := co.Claim(bg, w.WorkerID)
	if !ok {
		t.Fatalf("claim failed")
	}

	path := fmt.Sprintf("/cluster/jobs/%s/checkpoint?worker=%s&attempt=%s", st.ID, w.WorkerID, claim.AttemptID)
	torn := httptest.NewRequest(http.MethodPut, path, bytes.NewReader([]byte("only-half-the-checkpo")))
	torn.Header.Set("Content-Length", "1000")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, torn)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("torn upload = %d, want 400", rec.Code)
	}
	if _, ok, _ := co.Checkpoint(bg, st.ID); ok {
		t.Fatalf("torn payload reached the store")
	}

	// The same upload, intact, lands.
	good := httptest.NewRequest(http.MethodPut, path, bytes.NewReader([]byte("the-whole-checkpoint")))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, good)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("intact upload = %d (%s), want 204", rec.Code, rec.Body)
	}
	payload, _, err := co.Checkpoint(bg, st.ID)
	if err != nil || string(payload) != "the-whole-checkpoint" {
		t.Fatalf("stored checkpoint = (%q, %v)", payload, err)
	}
}
