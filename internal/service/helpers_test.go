package service_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aiger"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	. "repro/internal/service"
)

// transport names how a test's jobs reach their worker: the engine's own
// in-process workers, or a remote worker over the cluster HTTP wire.
type transport string

const (
	inproc   transport = "inproc"
	overHTTP transport = "http"
)

var transports = []transport{inproc, overHTTP}

// testCircuit returns a 16-bit carry-lookahead adder as ASCII AIGER bytes.
// At the testSpec threshold the flow runs ~17 iterations — long enough to
// interrupt mid-run, short enough for fast tests.
func testCircuit(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := aiger.Write(&buf, bench.CLA(16), "aag"); err != nil {
		t.Fatalf("serializing test circuit: %v", err)
	}
	return buf.Bytes()
}

func testSpec() JobSpec {
	return JobSpec{
		Metric:       "er",
		Threshold:    0.05,
		Seed:         3,
		EvalPatterns: 1024,
		Workers:      1,
	}
}

// graphAAG returns a done job's stored result for bitwise comparison.
func graphAAG(t *testing.T, m *Manager, id string) []byte {
	t.Helper()
	aag, err := m.ResultAAG(id)
	if err != nil {
		t.Fatalf("ResultAAG(%s): %v", id, err)
	}
	return aag
}

// referenceRun computes the uninterrupted single-process answer for a spec.
func referenceRun(t *testing.T, spec JobSpec, circuit []byte) (core.Result, []byte) {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	opts, err := spec.Options()
	if err != nil {
		t.Fatalf("options: %v", err)
	}
	g, err := ParseCircuit(spec.Format, circuit)
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

// startManager builds an engine over cfg and runs its in-process workers
// (one unless cfg says otherwise); the returned stop function shuts it down
// gracefully and asserts no goroutine leaked.
func startManager(t *testing.T, cfg Config) (*Manager, func()) {
	t.Helper()
	return startRig(t, inproc, cfg)
}

// startRig is startManager over either transport. Over HTTP the engine runs
// no in-process worker and cfg.Workers remote workers join it through
// cluster.NewHandler, with the engine's checkpoint cadence, sending their
// requests through rt when one is given.
func startRig(t *testing.T, tr transport, cfg Config, rt ...http.RoundTripper) (*Manager, func()) {
	t.Helper()
	base := runtime.NumGoroutine()
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	workers := max(cfg.Workers, 1)
	cfg.Workers = workers
	if tr == overHTTP {
		cfg.Workers = 0
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Run(ctx)
	}()
	var srv *httptest.Server
	client := &http.Client{Transport: &http.Transport{}}
	if len(rt) > 0 {
		client.Transport = rt[0]
	}
	if tr == overHTTP {
		srv = httptest.NewServer(cluster.NewHandler(m))
		for i := 0; i < workers; i++ {
			wk, err := cluster.NewWorker(cluster.WorkerConfig{
				Join: srv.URL, Name: fmt.Sprintf("remote-%d", i+1), Client: client,
				Now: cfg.Now, CheckpointEvery: cfg.CheckpointEvery,
			})
			if err != nil {
				t.Fatalf("NewWorker: %v", err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = wk.Run(ctx)
			}()
		}
	}
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			wg.Wait() // remote workers park their farewell checkpoints first
			if srv != nil {
				srv.Close()
			}
			client.CloseIdleConnections()
			http.DefaultTransport.(*http.Transport).CloseIdleConnections()
			waitGoroutines(t, base)
		})
	}
	return m, stop
}

// waitGoroutines polls until the goroutine count returns to (about) base,
// failing the test on a leak. The small slack absorbs runtime-internal
// goroutines (e.g. the race detector's background workers).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, started with %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitState polls until the job reaches state want (or any terminal state,
// which then must be want).
func waitState(t *testing.T, m *Manager, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		job, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		st := job.Status(true)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitTerminal polls until the job reaches any terminal state.
func waitTerminal(t *testing.T, m *Manager, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		job, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		st := job.Status(false)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitIterations polls until the job has run at least n iterations (or
// ended). Over HTTP no step reaches the engine, so it waits for the first
// stored checkpoint instead.
func waitIterations(t *testing.T, m *Manager, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		job, _ := m.Get(id)
		s := job.Status(false)
		if s.Iterations >= n || s.State.Terminal() || metric(t, m, "alsrac_checkpoints_total") >= float64(n) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("job never accumulated iterations")
		}
		time.Sleep(time.Millisecond)
	}
}

// metric reads one series (name plus labels, as rendered) from the
// engine's Prometheus exposition; a missing series reads as -1.
func metric(t testing.TB, m *Manager, series string) float64 {
	t.Helper()
	var buf bytes.Buffer
	m.Registry().WritePrometheus(&buf)
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
