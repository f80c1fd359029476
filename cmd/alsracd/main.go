// Command alsracd is the ALSRAC synthesis daemon: one job engine
// (internal/service) driving checkpointed approximation sessions behind an
// HTTP API, with in-process workers and, optionally, remote ones.
//
// Submit a circuit and watch it converge:
//
//	alsracd -dir /var/lib/alsracd &
//	curl -X POST --data-binary @adder.blif \
//	    'localhost:8337/jobs?metric=er&threshold=0.01&seed=1'
//	curl 'localhost:8337/jobs/j000001/events'          # NDJSON progress
//	curl 'localhost:8337/jobs/j000001/result?format=blif' > adder_approx.blif
//
// The certified job type proves an exact worst-case error bound on every
// committed change (metric=maxerr, optionally maxerror= for a bound apart
// from the threshold and certbudget= to cap SAT conflicts per proof):
//
//	curl -X POST --data-binary @adder.blif \
//	    'localhost:8337/jobs?metric=maxerr&threshold=0.02'
//
// Jobs survive restarts: every job's spec, circuit and state live under
// -dir/jobs/, checkpoints and results in a content-addressed store under
// -dir/cas/, and on startup unfinished jobs are requeued and resumed from
// their newest checkpoint — converging to the same final circuit the
// uninterrupted run would have produced (the flow is deterministic in the
// seed). Submitting the same circuit and parameters twice is a cache hit.
// SIGINT/SIGTERM trigger a graceful shutdown that checkpoints every
// in-flight session first.
//
// The daemon is a one-node cluster: the same binary scales out by letting
// workers on other machines join it and execute leased jobs. -coordinator
// runs the daemon with no in-process workers:
//
//	alsracd -coordinator -addr :8337 -dir /var/lib/alsrac-coord &
//	alsracd -worker -join http://coord:8337 &     # on each machine
//	curl -X POST --data-binary @adder.blif \
//	    'coord:8337/jobs?metric=er&threshold=0.01&seed=1'
//
// Kill a worker mid-job and its lease expires; another worker resumes from
// the last uploaded checkpoint and — because the flow is bitwise
// deterministic — produces the identical result.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", "localhost:8337", "HTTP listen address")
		dir        = flag.String("dir", "alsracd-data", "store directory (job files under jobs/, checkpoints and results under cas/)")
		jobs       = flag.Int("jobs", 1, "in-process workers: jobs run concurrently (each additionally parallelizes internally per its workers parameter)")
		queue      = flag.Int("queue", 256, "submission queue bound")
		ckptEvery  = flag.Int("checkpoint-every", 8, "checkpoint a running session every N iterations")
		jobTimeout = flag.Duration("job-timeout", 0, "default per-job deadline; on expiry a job completes with its best-so-far result (0 = none)")
		quiet      = flag.Bool("q", false, "suppress per-job log lines")

		coordMode = flag.Bool("coordinator", false, "run no in-process workers: lease every job to joined remote workers")
		workMode  = flag.Bool("worker", false, "run as a cluster worker: join a coordinator and execute leased jobs (requires -join)")
		join      = flag.String("join", "", "coordinator base URL to join (worker mode), e.g. http://coord:8337")
		name      = flag.String("name", "", "worker name shown in coordinator logs (default: hostname)")
		leaseTTL  = flag.Duration("lease-ttl", 15*time.Second, "job lease TTL; a worker silent this long loses its jobs to reassignment")
		pollEvery = flag.Duration("poll-interval", 500*time.Millisecond, "idle claim-poll cadence advertised to remote workers")
	)
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	switch {
	case *coordMode && *workMode:
		fmt.Fprintln(os.Stderr, "alsracd: -coordinator and -worker are mutually exclusive")
		os.Exit(2)
	case *workMode:
		runWorker(*join, *name, *ckptEvery, logf)
		return
	case *join != "":
		fmt.Fprintln(os.Stderr, "alsracd: -join requires -worker")
		os.Exit(2)
	case *coordMode:
		*jobs = 0
	}
	runDaemon(*addr, service.Config{
		Dir:               *dir,
		QueueSize:         *queue,
		Workers:           *jobs,
		CheckpointEvery:   *ckptEvery,
		DefaultTimeoutSec: jobTimeout.Seconds(),
		LeaseTTL:          *leaseTTL,
		PollInterval:      *pollEvery,
		Now:               time.Now,
		Logf:              logf,
	})
}

// signalCtx is the shared SIGINT/SIGTERM lifetime of every mode.
func signalCtx() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// runWorker joins an engine and executes leased jobs until terminated.
// On SIGTERM the worker uploads a final checkpoint of any in-flight session
// before exiting, so its successor resumes instead of recomputing.
func runWorker(join, name string, ckptEvery int, logf func(string, ...any)) {
	if join == "" {
		fmt.Fprintln(os.Stderr, "alsracd: -worker requires -join <coordinator-url>")
		os.Exit(2)
	}
	if name == "" {
		if host, err := os.Hostname(); err == nil {
			name = host
		} else {
			name = "worker"
		}
	}
	wk, err := cluster.NewWorker(cluster.WorkerConfig{
		Join:            join,
		Name:            name,
		Now:             time.Now,
		CheckpointEvery: ckptEvery,
		Logf:            logf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "alsracd: %v\n", err)
		os.Exit(1)
	}
	ctx, stop := signalCtx()
	defer stop()
	log.Printf("alsracd: worker %q joining %s", name, join)
	if err := wk.Run(ctx); err != nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "alsracd: %v\n", err)
		os.Exit(1)
	}
	log.Printf("alsracd: worker shutdown complete")
}

// runDaemon serves the engine: the client API plus the /cluster/* wire for
// remote workers, with cfg.Workers in-process workers (none for
// -coordinator).
func runDaemon(addr string, cfg service.Config) {
	m, err := service.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alsracd: %v\n", err)
		os.Exit(1)
	}

	srv := &http.Server{
		Addr:    addr,
		Handler: cluster.NewHandler(m),
		// Slow-client hardening: a peer that never finishes its headers or
		// parks an idle keep-alive connection cannot pin a descriptor
		// forever. No WriteTimeout: /jobs/{id}/events is a long-lived NDJSON
		// stream that must outlive any fixed write deadline — each event
		// write instead arms its own per-write deadline via
		// http.ResponseController (see service.HandlerOptions).
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signalCtx()
	defer stop()

	serveErr := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		m.Run(ctx) // returns after draining: in-flight sessions checkpointed
	}()
	go func() {
		defer wg.Done()
		serveErr <- srv.ListenAndServe()
	}()
	log.Printf("alsracd: listening on %s, store %s, %d local worker(s)", addr, cfg.Dir, cfg.Workers)

	var exitErr error
	select {
	case <-ctx.Done():
		log.Printf("alsracd: shutting down, checkpointing in-flight jobs")
		shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		srv.Shutdown(shutCtx)
		cancel()
	case err := <-serveErr:
		exitErr = err
		stop() // the listener died: drain the workers and exit
	}
	wg.Wait()
	if exitErr != nil && exitErr != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "alsracd: %v\n", exitErr)
		os.Exit(1)
	}
	log.Printf("alsracd: shutdown complete")
}
