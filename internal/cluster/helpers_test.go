package cluster

import (
	"bufio"
	"bytes"
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aiger"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/service"
)

var bg = context.Background()

// fakeClock is the injected time source shared by a test's engine and
// workers. It only moves when the test says so, which makes every lease
// expiry and hedge decision a deliberate act of the test script.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1700000000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testCircuit returns a 16-bit carry-lookahead adder as ASCII AIGER bytes —
// the same workload the service tests use (~17 iterations at testSpec).
func testCircuit(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := aiger.Write(&buf, bench.CLA(16), "aag"); err != nil {
		t.Fatalf("serializing test circuit: %v", err)
	}
	return buf.Bytes()
}

func testSpec() service.JobSpec {
	return service.JobSpec{
		Metric:       "er",
		Threshold:    0.05,
		Seed:         3,
		EvalPatterns: 1024,
		Workers:      1,
	}
}

// refRun computes the uninterrupted single-process answer: the bitwise
// yardstick every cluster execution — killed, resumed, hedged or cached —
// must reproduce exactly.
func refRun(t *testing.T, spec service.JobSpec, circuit []byte) (core.Result, []byte) {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	opts, err := spec.Options()
	if err != nil {
		t.Fatalf("options: %v", err)
	}
	g, err := service.ParseCircuit(spec.Format, circuit)
	if err != nil {
		t.Fatalf("parse circuit: %v", err)
	}
	res := core.Run(g, opts)
	var buf bytes.Buffer
	if err := aiger.Write(&buf, res.Graph, "aag"); err != nil {
		t.Fatalf("serializing reference: %v", err)
	}
	return res, buf.Bytes()
}

// newTestCoord builds an engine with no in-process workers on a temp dir
// with the shared fake clock and test-friendly timings; mutate tweaks the
// config before construction.
func newTestCoord(t *testing.T, clk *fakeClock, mutate func(*service.Config)) *service.Manager {
	t.Helper()
	cfg := service.Config{
		Dir:      t.TempDir(),
		Now:      clk.Now,
		LeaseTTL: 10 * time.Second,
		Logf:     t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	co, err := service.New(cfg)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	return co
}

// register admits a worker through the direct API.
func register(t *testing.T, co *service.Manager, name string) service.RegisterResponse {
	t.Helper()
	w, err := co.Register(bg, name)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	return w
}

func lease(c service.ClaimResponse, workerID string) service.Lease {
	return service.Lease{JobID: c.JobID, WorkerID: workerID, AttemptID: c.AttemptID}
}

// status snapshots one job.
func status(t *testing.T, co *service.Manager, id string) service.JobStatus {
	t.Helper()
	j, ok := co.Get(id)
	if !ok {
		t.Fatalf("no job %s", id)
	}
	return j.Status(false)
}

// finishAttempt plays a worker completing an attempt through the direct API:
// the payload must parse as AAG, so tests hand back the circuit itself.
func finishAttempt(t *testing.T, co *service.Manager, claim service.ClaimResponse, workerID string, aag []byte) {
	t.Helper()
	sum := service.ResultSummary{Iterations: 17, Applied: 9, Ands: 100, FinalError: 0.042, Reason: "threshold"}
	if err := co.UploadResult(bg, lease(claim, workerID), sum, aag); err != nil {
		t.Fatalf("UploadResult(%s): %v", claim.JobID, err)
	}
}

// metric reads one series (name plus labels, as rendered) from the
// engine's Prometheus exposition; a missing series reads as -1.
func metric(t testing.TB, co *service.Manager, series string) float64 {
	t.Helper()
	var buf bytes.Buffer
	co.Registry().WritePrometheus(&buf)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: %v", series, err)
			}
			return v
		}
	}
	return -1
}
