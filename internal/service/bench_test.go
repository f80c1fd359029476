package service_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/aiger"
	"repro/internal/bench"
	. "repro/internal/service"
)

// BenchmarkServiceThroughput measures end-to-end job latency through the
// whole engine — submit, persist, queue, session run, result write — for a
// small circuit, so the number is dominated by per-job overhead rather than
// synthesis time. One op = one job driven to completion. Every op draws a
// fresh seed, so the content-addressed cache never answers a job.
func BenchmarkServiceThroughput(b *testing.B) {
	var circuit bytes.Buffer
	if err := aiger.Write(&circuit, bench.RCA(8), "aag"); err != nil {
		b.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m, err := New(Config{
				Dir:       b.TempDir(),
				Workers:   workers,
				QueueSize: b.N + workers,
				Now:       time.Now,
			})
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.Run(ctx)
			}()

			b.ResetTimer()
			ids := make([]string, b.N)
			for i := 0; i < b.N; i++ {
				spec := JobSpec{Metric: "er", Threshold: 0.05, Seed: int64(i + 1), EvalPatterns: 1024, Workers: 1}
				st, err := m.Submit(spec, circuit.Bytes())
				if err != nil {
					b.Fatal(err)
				}
				if st.CacheHit {
					b.Fatalf("op %d hit the cache: benchmark measures computing jobs", i)
				}
				ids[i] = st.ID
			}
			for _, id := range ids {
				job, _ := m.Get(id)
				for !job.State().Terminal() {
					time.Sleep(100 * time.Microsecond)
				}
				if s := job.State(); s != StateDone {
					b.Fatalf("job %s ended %s", id, s)
				}
			}
			b.StopTimer()
			cancel()
			wg.Wait()
		})
	}
}
