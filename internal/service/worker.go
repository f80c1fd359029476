package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/aiger"
	"repro/internal/core"
)

// Transport is the worker-facing method set of the engine. *Manager
// implements it for in-process workers; internal/cluster implements it
// over HTTP for remote ones. Both run the one loop, RunWorker.
type Transport interface {
	Register(ctx context.Context, name string) (RegisterResponse, error)
	Claim(ctx context.Context, workerID string) (ClaimResponse, bool, error)
	Circuit(ctx context.Context, jobID string) ([]byte, error)
	Checkpoint(ctx context.Context, jobID string) ([]byte, bool, error)
	Renew(ctx context.Context, l Lease) error
	UploadCheckpoint(ctx context.Context, l Lease, payload []byte) error
	UploadResult(ctx context.Context, l Lease, sum ResultSummary, aag []byte) error
	Fail(ctx context.Context, l Lease, msg, stack string) error
	// Report delivers one step; ErrLeaseLost stops the attempt.
	Report(ctx context.Context, l Lease, r StepReport) error
	// Wait parks an idle worker for at most d.
	Wait(ctx context.Context, d time.Duration) error
}

// Lease names one attempt: the worker holding it and the job it runs.
type Lease struct {
	JobID     string
	WorkerID  string
	AttemptID string
}

// RegisterResponse assigns a worker its identity and cadence: the lease is
// renewed every LeaseTTLMillis/3, and an idle worker claims again no
// faster than PollMillis.
type RegisterResponse struct {
	WorkerID       string `json:"worker_id"`
	LeaseTTLMillis int64  `json:"lease_ttl_ms"`
	PollMillis     int64  `json:"poll_ms"`
}

// ClaimResponse grants a lease on one job attempt.
type ClaimResponse struct {
	JobID     string  `json:"job_id"`
	AttemptID string  `json:"attempt_id"`
	Spec      JobSpec `json:"spec"`
	// Hedge marks a straggler duplicate: another worker still holds a live
	// lease on the same job, first finisher wins.
	Hedge bool `json:"hedge,omitempty"`
	// HasCheckpoint hints that Checkpoint will likely succeed, so the
	// worker should resume rather than rebuild.
	HasCheckpoint bool `json:"has_checkpoint,omitempty"`
}

// ResultSummary is the metadata side of a finished job, stored alongside the
// result circuit so a cache hit restores the full status a fresh run would
// have reported.
type ResultSummary struct {
	Iterations int     `json:"iterations"`
	Applied    int     `json:"applied"`
	Ands       int     `json:"ands"`
	FinalError float64 `json:"final_error"`
	Reason     string  `json:"reason"`
	// TimedOut marks a best-so-far result cut short by the spec's deadline.
	TimedOut bool `json:"timed_out,omitempty"`
}

// StepReport is one session step as a worker reports it.
type StepReport struct {
	Event      core.Event
	Iterations int               // iterations the step committed
	Applied    int               // LACs committed so far
	History    []core.IterRecord // the session's trace so far
	Seconds    float64           // step latency
	Certs      []CertObservation // certifications decided during the step
}

// CertObservation is one exact max-error certification.
type CertObservation struct {
	Backend   string
	Seconds   float64
	Conflicts int64
}

// encodeResult packs summary JSON + result AAG bytes into one stored
// payload: u32 summary length, summary, circuit.
func encodeResult(sum ResultSummary, aag []byte) ([]byte, error) {
	sj, err := json.Marshal(sum)
	if err != nil {
		return nil, fmt.Errorf("service: encoding result summary: %w", err)
	}
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(sj)))
	out = append(out, sj...)
	return append(out, aag...), nil
}

// decodeResult splits a stored result payload back into summary and AAG.
func decodeResult(payload []byte) (ResultSummary, []byte, error) {
	var sum ResultSummary
	if len(payload) < 4 {
		return sum, nil, errors.New("service: result payload too short")
	}
	n := binary.LittleEndian.Uint32(payload)
	rest := payload[4:]
	if uint32(len(rest)) < n {
		return sum, nil, fmt.Errorf("service: result summary length %d exceeds payload", n)
	}
	if err := json.Unmarshal(rest[:n], &sum); err != nil {
		return sum, nil, fmt.Errorf("service: decoding result summary: %w", err)
	}
	return sum, rest[n:], nil
}

// BuildSession constructs a fresh synthesis session for a normalized spec
// over the verbatim submitted circuit bytes, exactly as a worker does for
// a job without a usable checkpoint.
func BuildSession(spec JobSpec, circuit []byte) (*core.Session, error) {
	opts, err := spec.Options()
	if err != nil {
		return nil, err
	}
	return newSession(opts, spec.Format, circuit)
}

func newSession(opts core.Options, format string, circuit []byte) (*core.Session, error) {
	g, err := ParseCircuit(format, circuit)
	if err != nil {
		return nil, fmt.Errorf("parsing circuit: %w", err)
	}
	return core.NewSession(g, opts), nil
}

// worker is one claim-execute loop.
type worker struct {
	t     Transport
	name  string
	now   func() time.Time
	every int
	logf  func(format string, args ...any)

	id   string
	ttl  time.Duration
	poll time.Duration
}

// RunWorker registers with the engine behind t and executes claimed jobs
// until ctx is cancelled: restore-or-rebuild, then Step, reporting every
// step, uploading a checkpoint every `every` steps and the result at the
// end. The spec's TimeoutSec bounds each attempt (on expiry the job ends
// done with its best-so-far result), a heartbeat renews the lease every
// TTL/3 even inside a long step, a panic is recovered and reported with its
// stack, and shutdown parks a farewell checkpoint. It returns ctx.Err().
func RunWorker(ctx context.Context, t Transport, name string, now func() time.Time, every int, logf func(format string, args ...any)) error {
	w := &worker{t: t, name: name, now: now, every: every, logf: logf}
	if err := w.register(ctx); err != nil {
		return err
	}
	for idle := 0; ; {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		claim, ok, err := t.Claim(ctx, w.id)
		switch {
		case errors.Is(err, ErrUnknownWorker):
			// The engine restarted and forgot us: join again.
			if err := w.register(ctx); err != nil {
				return err
			}
		case err != nil:
			idle++
			w.log("worker %s: claim failed (%v), backing off", w.id, err)
			if err := t.Wait(ctx, Backoff("claim/"+w.id, idle, w.poll, 8*w.poll)); err != nil {
				return err
			}
		case !ok:
			idle = 0
			if err := t.Wait(ctx, w.poll); err != nil {
				return err
			}
		default:
			idle = 0
			w.attempt(ctx, claim)
		}
	}
}

func (w *worker) log(format string, args ...any) {
	if w.logf != nil {
		w.logf(format, args...)
	}
}

func (w *worker) register(ctx context.Context) error {
	reg, err := w.t.Register(ctx, w.name)
	if err != nil {
		return err
	}
	w.id = reg.WorkerID
	w.ttl = time.Duration(reg.LeaseTTLMillis) * time.Millisecond
	w.poll = time.Duration(reg.PollMillis) * time.Millisecond
	if w.poll <= 0 {
		w.poll = 500 * time.Millisecond
	}
	return nil
}

// attempt executes one leased attempt end to end. Lease loss — a renewal,
// report or upload answered ErrLeaseLost — abandons the session silently:
// the engine has already moved on.
func (w *worker) attempt(ctx context.Context, c ClaimResponse) {
	l := Lease{JobID: c.JobID, WorkerID: w.id, AttemptID: c.AttemptID}
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprintf("worker panic: %v", r)
			w.log("worker %s: job %s attempt %s: %s", w.id, c.JobID, c.AttemptID, msg)
			_ = w.t.Fail(ctx, l, msg, string(debug.Stack()))
		}
	}()

	// leaseCtx ends with the attempt, or when the heartbeat learns the
	// lease is gone.
	leaseCtx, lost := context.WithCancel(ctx)
	var hb sync.WaitGroup
	defer hb.Wait()
	defer lost()
	hb.Add(1)
	go func() {
		defer hb.Done()
		w.heartbeat(leaseCtx, lost, l)
	}()

	var certs []CertObservation
	sess, err := w.session(leaseCtx, c, &certs)
	if err != nil {
		if leaseCtx.Err() == nil {
			_ = w.t.Fail(ctx, l, err.Error(), "")
		}
		return
	}
	w.log("worker %s: job %s attempt %s starting at iteration %d (hedge=%t)", w.id, c.JobID, c.AttemptID, sess.Iterations(), c.Hedge)

	stepCtx := leaseCtx
	if t := c.Spec.TimeoutSec; t > 0 {
		var cancel context.CancelFunc
		stepCtx, cancel = context.WithTimeout(leaseCtx, time.Duration(t*float64(time.Second)))
		defer cancel()
	}
	for countdown := w.every; ; {
		certs = certs[:0]
		i0, t0 := sess.Iterations(), w.now()
		ev, err := sess.Step(stepCtx)
		if err != nil {
			switch {
			case ctx.Err() != nil:
				// Shutdown: park a farewell checkpoint so the next owner
				// resumes instead of recomputing. The upload must outlive the
				// dying ctx, so it runs on a detached, bounded one.
				fctx, done := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
				if err := w.checkpoint(fctx, l, sess); err != nil {
					w.log("worker %s: job %s: farewell checkpoint failed: %v", w.id, c.JobID, err)
				}
				done()
			case leaseCtx.Err() == nil:
				w.log("worker %s: job %s: deadline reached, finishing with best-so-far result", w.id, c.JobID)
				w.finish(leaseCtx, l, sess, true)
			}
			return
		}
		err = w.t.Report(leaseCtx, l, StepReport{
			Event:      ev,
			Iterations: sess.Iterations() - i0,
			Applied:    sess.Applied(),
			History:    sess.History(),
			Seconds:    w.now().Sub(t0).Seconds(),
			Certs:      certs,
		})
		if errors.Is(err, ErrLeaseLost) {
			w.log("worker %s: job %s attempt %s: lease lost, abandoning", w.id, c.JobID, c.AttemptID)
			return
		}
		if ev.Done {
			w.finish(leaseCtx, l, sess, false)
			return
		}
		if countdown--; countdown <= 0 {
			countdown = w.every
			if err := w.checkpoint(leaseCtx, l, sess); errors.Is(err, ErrLeaseLost) {
				return
			} else if err != nil {
				w.log("worker %s: job %s: checkpoint upload failed: %v", w.id, c.JobID, err)
			}
		}
	}
}

// heartbeat renews the lease every TTL/3 until ctx ends; on lease loss it
// cancels the attempt.
func (w *worker) heartbeat(ctx context.Context, lost context.CancelFunc, l Lease) {
	if w.ttl <= 0 {
		return
	}
	t := time.NewTicker(w.ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		err := w.t.Renew(ctx, l)
		if errors.Is(err, ErrLeaseLost) {
			w.log("worker %s: job %s attempt %s: lease lost at renew, abandoning", w.id, l.JobID, l.AttemptID)
			lost()
			return
		}
		if err != nil && ctx.Err() == nil {
			// Transient trouble: the next renewal or upload settles
			// ownership one way or the other.
			w.log("worker %s: job %s: renew failed: %v", w.id, l.JobID, err)
		}
	}
}

// session restores the claim from the newest checkpoint when one exists and
// restores, falling back to a fresh build from the circuit. Determinism
// makes both bitwise-equivalent.
func (w *worker) session(ctx context.Context, c ClaimResponse, certs *[]CertObservation) (*core.Session, error) {
	opts, err := c.Spec.Options()
	if err != nil {
		return nil, err
	}
	opts.CertNow = w.now
	opts.CertObserve = func(backend string, secs float64, conflicts int64) {
		*certs = append(*certs, CertObservation{Backend: backend, Seconds: secs, Conflicts: conflicts})
	}
	if c.HasCheckpoint {
		if ckpt, ok, err := w.t.Checkpoint(ctx, c.JobID); err == nil && ok {
			sess, rerr := core.Restore(bytes.NewReader(ckpt), opts)
			if rerr == nil {
				return sess, nil
			}
			w.log("worker %s: job %s: checkpoint unusable (%v), rebuilding from circuit", w.id, c.JobID, rerr)
		}
	}
	circuit, err := w.t.Circuit(ctx, c.JobID)
	if err != nil {
		return nil, fmt.Errorf("loading circuit: %w", err)
	}
	return newSession(opts, c.Spec.Format, circuit)
}

func (w *worker) checkpoint(ctx context.Context, l Lease, sess *core.Session) error {
	var buf bytes.Buffer
	if err := sess.Snapshot(&buf); err != nil {
		return fmt.Errorf("snapshotting session: %w", err)
	}
	return w.t.UploadCheckpoint(ctx, l, buf.Bytes())
}

// finish uploads the session's result. Losing a hedge race is not an error.
func (w *worker) finish(ctx context.Context, l Lease, sess *core.Session, timedOut bool) {
	res := sess.Result()
	var aag bytes.Buffer
	if err := aiger.Write(&aag, res.Graph, "aag"); err != nil {
		_ = w.t.Fail(ctx, l, fmt.Sprintf("encoding result: %v", err), "")
		return
	}
	sum := ResultSummary{
		Iterations: res.Iterations,
		Applied:    res.Applied,
		Ands:       res.Graph.NumAnds(),
		FinalError: res.FinalError,
		Reason:     sess.Reason(),
		TimedOut:   timedOut,
	}
	if timedOut {
		sum.Reason = "deadline"
	}
	switch err := w.t.UploadResult(ctx, l, sum, aag.Bytes()); {
	case errors.Is(err, ErrLeaseLost):
		w.log("worker %s: job %s attempt %s: lost the finish race", w.id, l.JobID, l.AttemptID)
	case err != nil:
		w.log("worker %s: job %s: result upload failed: %v", w.id, l.JobID, err)
	}
}
