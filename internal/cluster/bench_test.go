package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/service"
)

// BenchmarkClusterDispatch measures the engine's pure scheduling
// overhead for one job lifecycle: submit → claim → checkpoint upload →
// result upload → result read. Every iteration varies the seed so the
// content-addressed cache never short-circuits the path being measured.
func BenchmarkClusterDispatch(b *testing.B) {
	clk := newFakeClock()
	co, err := service.New(service.Config{
		Dir:      b.TempDir(),
		Now:      clk.Now,
		LeaseTTL: time.Hour,
	})
	if err != nil {
		b.Fatalf("service.New: %v", err)
	}

	circuit := testCircuit(b)
	w, _ := co.Register(bg, "bench")
	sum := service.ResultSummary{Iterations: 17, Applied: 9, Ands: 100, FinalError: 0.042, Reason: "threshold"}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := service.JobSpec{
			Metric:       "er",
			Threshold:    0.05,
			Seed:         int64(i + 1), // unique key per iteration: no cache hits
			EvalPatterns: 1024,
			Workers:      1,
		}
		st, err := co.Submit(spec, circuit)
		if err != nil {
			b.Fatalf("Submit: %v", err)
		}
		if st.CacheHit {
			b.Fatalf("iteration %d hit the cache: benchmark measures dispatch, not lookup", i)
		}
		claim, ok, err := co.Claim(bg, w.WorkerID)
		if err != nil || !ok {
			b.Fatalf("Claim = (%v, %t)", err, ok)
		}
		if err := co.UploadCheckpoint(bg, lease(claim, w.WorkerID), []byte(fmt.Sprintf("ckpt-%d", i))); err != nil {
			b.Fatalf("UploadCheckpoint: %v", err)
		}
		if err := co.UploadResult(bg, lease(claim, w.WorkerID), sum, circuit); err != nil {
			b.Fatalf("UploadResult: %v", err)
		}
		if _, err := co.ResultAAG(st.ID); err != nil {
			b.Fatalf("ResultAAG: %v", err)
		}
	}
}
