package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/faultfs"
	"repro/internal/obs"
)

// Sentinel errors returned by the Manager's API.
var (
	ErrQueueFull = errors.New("service: submission queue is full")
	ErrNotFound  = errors.New("service: no such job")
	ErrNotDone   = errors.New("service: job has no result yet")
	// ErrUnparsable wraps circuit parse failures so the HTTP layer can map
	// them to 422 Unprocessable Entity rather than a generic 400.
	ErrUnparsable = errors.New("service: circuit cannot be parsed")
	// ErrLeaseLost: the attempt no longer owns the job (expired, superseded
	// by a finished hedge, cancelled, or already terminal). HTTP 409.
	ErrLeaseLost = errors.New("service: lease lost")
	// ErrUnknownWorker: the worker id was never registered (or the engine
	// restarted); the worker must register again. HTTP 410.
	ErrUnknownWorker = errors.New("service: unknown worker")
)

// Scheduling constants of the lease state machine.
const (
	// hedgeQuantile of the attempt-duration histogram is the straggler
	// threshold: a sole attempt older than it gets a duplicate elsewhere.
	hedgeQuantile = 0.95
	// hedgeMinSamples completions must be observed before hedging starts,
	// and hedgeMinDelay floors the threshold.
	hedgeMinSamples = 5
	hedgeMinDelay   = time.Second
	// redispatchBase/redispatchMax bound the capped backoff before a failed
	// job becomes claimable again.
	redispatchBase = 250 * time.Millisecond
	redispatchMax  = 15 * time.Second
)

// Config configures a Manager.
type Config struct {
	// Dir is the root of the store: <Dir>/jobs/<id>/ holds each job's
	// spec.json, circuit and state.json, <Dir>/cas/ the content-addressed
	// checkpoints and results. Required.
	Dir string
	// QueueSize bounds the queued jobs; Submit fails with ErrQueueFull
	// beyond it. Default 256.
	QueueSize int
	// Workers is the number of in-process workers Run starts. Zero runs
	// none: the engine then only serves remote workers over the cluster
	// wire.
	Workers int
	// CheckpointEvery uploads a checkpoint of a running session every that
	// many steps (in addition to the farewell checkpoint at shutdown).
	// Default 8.
	CheckpointEvery int
	// DefaultTimeoutSec applies to jobs whose spec carries no timeout.
	// 0 means no default deadline.
	DefaultTimeoutSec float64
	// MaxFailures quarantines a job once its failure counter — expired
	// leases, reported failures and restarts that found it unfinished,
	// reset by every checkpoint upload — reaches it. Default 3.
	MaxFailures int
	// LeaseTTL is how long a claimed attempt stays owned without a renewal.
	// Default 15s.
	LeaseTTL time.Duration
	// PollInterval is the idle-claim cadence advertised to remote workers,
	// and bounds how long an idle in-process worker waits for a requeued
	// job still behind its backoff. Default 500ms.
	PollInterval time.Duration
	// FS is the filesystem the store runs on. Default faultfs.OS{}; chaos
	// tests inject a faultfs.Injector here.
	FS faultfs.FS
	// Now supplies wall-clock time for leases, hedging and latency
	// metrics. The clock is injected — this package may not read time.Now
	// itself (alsraclint determinism rule). Required.
	Now func() time.Time
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// metrics is the fixed instrument set exposed at /metrics.
type metrics struct {
	jobsByState map[State]*obs.Gauge
	queueDepth  *obs.Gauge
	submitted   *obs.Counter
	iterations  *obs.Counter
	lacsApplied *obs.Counter
	checkpoints *obs.Counter
	resumes     *obs.Counter
	fallbacks   *obs.Counter
	retries     *obs.Counter
	quarantined *obs.Counter
	panics      *obs.Counter
	stepSeconds *obs.Histogram

	certifyTotal   map[string]*obs.Counter
	certifySeconds map[string]*obs.Histogram
	certRejected   *obs.Counter
	satConflicts   *obs.Counter

	workers       *obs.Gauge
	leasesGranted *obs.Counter
	leasesRenewed *obs.Counter
	leasesExpired *obs.Counter
	reassignments *obs.Counter
	hedges        *obs.Counter
	hedgeWins     *obs.Counter
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	ckptUploads   *obs.Counter
	casCorrupt    map[string]*obs.Counter
	jobSeconds    *obs.Histogram
}

func newMetrics(reg *obs.Registry) metrics {
	met := metrics{
		jobsByState: map[State]*obs.Gauge{},
		queueDepth:  reg.Gauge("alsrac_queue_depth", "jobs waiting for a worker"),
		submitted:   reg.Counter("alsrac_jobs_submitted_total", "jobs accepted by POST /jobs"),
		iterations:  reg.Counter("alsrac_iterations_total", "Algorithm 3 iterations stepped by in-process workers"),
		lacsApplied: reg.Counter("alsrac_lacs_applied_total", "local approximate changes committed by in-process workers"),
		checkpoints: reg.Counter("alsrac_checkpoints_total", "session checkpoints stored"),
		resumes:     reg.Counter("alsrac_resumes_total", "checkpoints served to resume a session"),
		fallbacks:   reg.Counter("alsrac_checkpoint_fallback_total", "checkpoint generations rejected by their CRC"),
		retries:     reg.Counter("alsrac_store_retries_total", "store operations retried on transient errors"),
		quarantined: reg.Counter("alsrac_jobs_quarantined_total", "jobs quarantined after MaxFailures failures"),
		panics:      reg.Counter("alsrac_worker_panics_total", "worker panics recovered and reported as attempt failures"),
		stepSeconds: reg.Histogram("alsrac_step_seconds", "session step latency in seconds", obs.LatencyBuckets()),

		certifyTotal:   map[string]*obs.Counter{},
		certifySeconds: map[string]*obs.Histogram{},
		certRejected:   reg.Counter("alsrac_certify_rejected_total", "winning LACs rejected by exact max-error certification"),
		satConflicts:   reg.Counter("alsrac_sat_conflicts_total", "CDCL conflicts spent across SAT certifications"),

		workers:       reg.Gauge("alsrac_cluster_workers", "registered workers considered alive"),
		leasesGranted: reg.Counter("alsrac_cluster_leases_granted_total", "job attempts leased to workers"),
		leasesRenewed: reg.Counter("alsrac_cluster_leases_renewed_total", "lease renewals (renew, checkpoint and result uploads)"),
		leasesExpired: reg.Counter("alsrac_cluster_leases_expired_total", "leases that expired without renewal (dead or partitioned worker)"),
		reassignments: reg.Counter("alsrac_cluster_reassignments_total", "jobs requeued after a failed attempt"),
		hedges:        reg.Counter("alsrac_cluster_hedges_total", "straggler attempts duplicated onto a second worker"),
		hedgeWins:     reg.Counter("alsrac_cluster_hedge_wins_total", "jobs finished first by their hedge attempt"),
		cacheHits:     reg.Counter("alsrac_cluster_cache_hits_total", "submissions served from the content-addressed result store"),
		cacheMisses:   reg.Counter("alsrac_cluster_cache_misses_total", "submissions that required computation"),
		ckptUploads:   reg.Counter("alsrac_cluster_checkpoints_total", "checkpoint generations uploaded by workers"),
		casCorrupt:    map[string]*obs.Counter{},
		jobSeconds:    reg.Histogram("alsrac_cluster_job_seconds", "attempt durations from claim to result", obs.LatencyBuckets()),
	}
	for _, b := range []string{exact.BackendTrivial, exact.BackendExhaustive, exact.BackendSAT} {
		met.certifyTotal[b] = reg.Counter("alsrac_certify_total", "exact max-error certifications by backend", "backend", b)
		met.certifySeconds[b] = reg.Histogram("alsrac_certify_seconds", "exact certification latency in seconds", obs.LatencyBuckets(), "backend", b)
	}
	for _, s := range []State{StateQueued, StateRunning, StateDone, StateCancelled, StateQuarantined} {
		met.jobsByState[s] = reg.Gauge("alsrac_jobs", "jobs by lifecycle state", "state", string(s))
	}
	for _, kind := range []string{"checkpoint", "result"} {
		met.casCorrupt[kind] = reg.Counter("alsrac_cluster_cas_corrupt_total", "CRC-rejected CAS entries by kind", "kind", kind)
	}
	return met
}

// workerInfo is one registered worker.
type workerInfo struct {
	id       string
	name     string
	lastSeen time.Time
	alive    bool
}

// Manager is the job engine: one job table, one store (the CAS plus the
// job files) and one lease state machine, served to in-process workers
// (Config.Workers, started by Run) and, through internal/cluster, to remote
// ones. It runs no background goroutine of its own: lease expiry, hedging
// and redispatch happen lazily inside API entry points against the injected
// clock, so the state machine is single-stepped and deterministic under
// test. No file is written while the engine lock is held.
type Manager struct {
	cfg   Config
	cas   *CAS
	retry *retrier
	reg   *obs.Registry
	met   metrics

	// wake carries one token per submission or requeue to idle in-process
	// workers; it holds one per worker, so a burst of submissions wakes
	// every idle worker.
	wake chan struct{}

	mu          sync.Mutex
	jobs        map[string]*Job
	order       []*Job // insertion-ordered view (determinism: never range the map)
	reserved    int    // queue slots held by submissions still being persisted
	workers     map[string]*workerInfo
	workerOrder []string
	nextJob     int
	nextWorker  int
	nextAttempt int
	dirty       []*Job   // jobs whose state.json must be rewritten at unlock
	logs        []string // log lines printed at unlock
}

// persistedState is the state.json payload.
type persistedState struct {
	State        State         `json:"state"`
	Error        string        `json:"error,omitempty"`
	Key          string        `json:"key"`
	CacheHit     bool          `json:"cache_hit,omitempty"`
	Redispatches int           `json:"redispatches,omitempty"`
	Attempts     int           `json:"attempts,omitempty"`
	Summary      ResultSummary `json:"summary"`
}

// New builds a Manager over cfg.Dir, recovering every persisted job: jobs
// in a terminal state are served from the store, unfinished ones count one
// failure (a restart found them unfinished) and are requeued — their next
// claim resumes from the key's newest CAS checkpoint — or quarantined once
// the counter reaches MaxFailures.
func New(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, errors.New("service: Config.Dir is required")
	}
	if cfg.Now == nil {
		return nil, errors.New("service: Config.Now is required")
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 256
	}
	if cfg.Workers < 0 {
		cfg.Workers = 0
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 8
	}
	if cfg.MaxFailures <= 0 {
		cfg.MaxFailures = 3
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.FS == nil {
		cfg.FS = faultfs.OS{}
	}
	reg := obs.NewRegistry()
	met := newMetrics(reg)
	retry := &retrier{sleep: time.Sleep, onRetry: met.retries.Inc}
	cas, err := NewCAS(filepath.Join(cfg.Dir, "cas"), cfg.FS)
	if err != nil {
		return nil, err
	}
	cas.retry = retry
	cas.OnCorrupt = func(kind string) {
		met.casCorrupt[kind].Inc()
		if kind == "checkpoint" {
			met.fallbacks.Inc()
		}
	}
	m := &Manager{
		cfg:     cfg,
		cas:     cas,
		retry:   retry,
		reg:     reg,
		met:     met,
		wake:    make(chan struct{}, max(cfg.Workers, 1)),
		jobs:    map[string]*Job{},
		workers: map[string]*workerInfo{},
	}
	m.mu.Lock()
	err = m.recover()
	m.unlock()
	if err != nil {
		return nil, fmt.Errorf("service: recovering persisted jobs: %w", err)
	}
	return m, nil
}

// Registry exposes the engine's metrics for /metrics rendering.
func (m *Manager) Registry() *obs.Registry { return m.reg }

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// Run starts Config.Workers in-process workers and returns once ctx is
// cancelled and every worker has parked a farewell checkpoint of its
// in-flight session (the job stays unfinished on disk and resumes on the
// next start). No goroutine outlives Run.
func (m *Manager) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for i := 0; i < m.cfg.Workers; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			_ = RunWorker(ctx, m, fmt.Sprintf("local-%d", n), m.cfg.Now, m.cfg.CheckpointEvery, m.cfg.Logf)
		}(i + 1)
	}
	wg.Wait()
	<-ctx.Done()
}

// Wait parks an idle in-process worker until the next submission or
// requeue, at most d.
func (m *Manager) Wait(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-m.wake:
	case <-t.C:
	}
	return nil
}

func (m *Manager) signal() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// --- persistence -------------------------------------------------------------

func (m *Manager) jobDir(id string) string { return filepath.Join(m.cfg.Dir, "jobs", id) }

func formatID(n int) string { return fmt.Sprintf("j%06d", n) }

// unlock releases the engine lock, then prints the log lines queued under
// it and rewrites state.json of every job changed under it: neither the
// caller's Logf nor a file write ever runs under the lock.
func (m *Manager) unlock() {
	dirty, logs := m.dirty, m.logs
	m.dirty, m.logs = nil, nil
	m.mu.Unlock()
	for _, line := range logs {
		m.cfg.Logf("%s", line)
	}
	for _, j := range dirty {
		m.saveState(j)
	}
}

// logLocked queues a log line for unlock.
func (m *Manager) logLocked(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.logs = append(m.logs, fmt.Sprintf(format, args...))
	}
}

// saveState persists the job's current state. The per-job persistMu orders
// concurrent writers, and the snapshot is taken after acquiring it, so the
// last write always carries the newest state.
func (m *Manager) saveState(j *Job) {
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	m.mu.Lock()
	data, err := j.stateJSON()
	m.mu.Unlock()
	if err == nil {
		err = m.retry.write(m.cfg.FS, filepath.Join(m.jobDir(j.ID), "state.json"), data)
	}
	if err != nil {
		m.logf("job %s: persisting state: %v", j.ID, err)
	}
}

// stateJSON encodes the job's state.json payload; the caller holds the
// engine lock or has not yet published the job.
func (j *Job) stateJSON() ([]byte, error) {
	return json.Marshal(persistedState{
		State: j.state, Error: j.errMsg, Key: j.key, CacheHit: j.cacheHit,
		Redispatches: j.redispatches, Attempts: j.failures, Summary: j.sum,
	})
}

// createJob persists a new job's spec, circuit and initial state.
func (m *Manager) createJob(j *Job, circuit []byte) error {
	dir := m.jobDir(j.ID)
	if err := m.cfg.FS.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	specJSON, err := json.MarshalIndent(j.Spec, "", "  ")
	if err != nil {
		return err
	}
	if err := m.retry.write(m.cfg.FS, filepath.Join(dir, "spec.json"), specJSON); err != nil {
		return err
	}
	if err := m.retry.write(m.cfg.FS, filepath.Join(dir, "circuit"), circuit); err != nil {
		return err
	}
	data, err := j.stateJSON()
	if err != nil {
		return err
	}
	return m.retry.write(m.cfg.FS, filepath.Join(dir, "state.json"), data)
}

// recover reloads the job table from <Dir>/jobs, with the lock held. Ids are zero-padded
// sequence numbers, so lexical order is submission order. Temp files of
// writes interrupted by a crash — never renamed into place, so never
// visible — are swept out here.
func (m *Manager) recover() error {
	root := filepath.Join(m.cfg.Dir, "jobs")
	if err := m.cfg.FS.MkdirAll(root, 0o755); err != nil {
		return err
	}
	entries, err := m.cfg.FS.ReadDir(root)
	if err != nil {
		return err
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "j") {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	now := m.cfg.Now()
	for _, id := range ids {
		m.sweepTemps(m.jobDir(id))
		specData, err := m.cfg.FS.ReadFile(filepath.Join(m.jobDir(id), "spec.json"))
		if err != nil {
			continue // torn submission: spec.json is written first
		}
		j := &Job{ID: id, m: m, state: StateQueued, nextEligible: now}
		if json.Unmarshal(specData, &j.Spec) != nil {
			continue
		}
		var ps persistedState
		if data, err := m.cfg.FS.ReadFile(filepath.Join(m.jobDir(id), "state.json")); err == nil && json.Unmarshal(data, &ps) == nil {
			j.key, j.cacheHit, j.redispatches, j.failures, j.sum, j.errMsg = ps.Key, ps.CacheHit, ps.Redispatches, ps.Attempts, ps.Summary, ps.Error
			if ps.State.Terminal() {
				j.state = ps.State
			}
		}
		if j.key == "" {
			circuit, err := m.cfg.FS.ReadFile(filepath.Join(m.jobDir(id), "circuit"))
			if err != nil {
				continue
			}
			g, err := ParseCircuit(j.Spec.Format, circuit)
			if err != nil {
				continue
			}
			j.key = JobKey(j.Spec, g)
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "j")); err == nil && n > m.nextJob {
			m.nextJob = n
		}
		m.jobs[id] = j
		m.order = append(m.order, j)
		m.met.jobsByState[j.state].Inc()
		if !j.state.Terminal() {
			m.sweepTemps(m.cas.keyDir(j.key))
			m.met.queueDepth.Inc()
			j.failures++
			if j.failures >= m.cfg.MaxFailures {
				m.quarantineLocked(j, "restart found the job unfinished")
			} else {
				m.dirty = append(m.dirty, j)
				m.logLocked("job %s: requeued after restart (failure %d of %d)", id, j.failures, m.cfg.MaxFailures)
			}
		}
	}
	return nil
}

// sweepTemps removes interrupted-write residue from a job directory. Errors
// are ignored: a leftover temp file is invisible to every reader.
func (m *Manager) sweepTemps(dir string) {
	entries, err := m.cfg.FS.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			_ = m.cfg.FS.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// --- lifecycle ---------------------------------------------------------------

// transitionLocked moves the job to state s, keeps the gauges consistent,
// publishes the transition and schedules a state.json write (a claim is not
// persisted: running and queued both resume as queued after a restart).
func (m *Manager) transitionLocked(j *Job, s State) {
	if j.state == s {
		return
	}
	if j.state == StateQueued {
		m.met.queueDepth.Dec()
	}
	if s == StateQueued {
		m.met.queueDepth.Inc()
	}
	m.met.jobsByState[j.state].Dec()
	m.met.jobsByState[s].Inc()
	j.state = s
	j.publishLocked(Event{State: s})
	if s != StateRunning {
		m.dirty = append(m.dirty, j)
	}
}

// sweepLocked advances the lease state machine to now: expired attempts
// are discarded and counted as failures, and a job left without attempts is
// requeued or quarantined. Workers unseen for two TTLs drop out of the
// alive gauge. Called at every worker-facing entry with the lock held —
// there is no background ticker to race with.
func (m *Manager) sweepLocked(now time.Time) {
	for _, j := range m.order {
		if len(j.active) == 0 {
			continue
		}
		kept := j.active[:0]
		for _, a := range j.active {
			if a.expires.After(now) {
				kept = append(kept, a)
				continue
			}
			m.met.leasesExpired.Inc()
			j.failures++
			m.logLocked("job %s attempt %s: lease expired (worker %s)", j.ID, a.id, a.worker)
		}
		j.active = kept
		if len(j.active) == 0 && j.state == StateRunning {
			m.requeueLocked(j, now, "lease expired")
		}
	}
	alive := int64(0)
	for _, id := range m.workerOrder {
		w := m.workers[id]
		w.alive = now.Sub(w.lastSeen) <= 2*m.cfg.LeaseTTL
		if w.alive {
			alive++
		}
	}
	m.met.workers.Set(alive)
}

// requeueLocked returns a job that lost its last attempt to the queue
// under capped backoff, or quarantines it at MaxFailures.
func (m *Manager) requeueLocked(j *Job, now time.Time, why string) {
	if j.failures >= m.cfg.MaxFailures {
		m.quarantineLocked(j, why)
		return
	}
	j.redispatches++
	j.nextEligible = now.Add(Backoff("redispatch/"+j.ID, j.redispatches, redispatchBase, redispatchMax))
	m.met.reassignments.Inc()
	m.transitionLocked(j, StateQueued)
	m.signal()
	m.logLocked("job %s requeued (%s), eligible in %v", j.ID, why, j.nextEligible.Sub(now))
}

func (m *Manager) quarantineLocked(j *Job, why string) {
	j.errMsg = fmt.Sprintf("quarantined after %d failures (last: %s)", j.failures, why)
	m.transitionLocked(j, StateQuarantined)
	j.publishLocked(Event{Message: j.errMsg + "; job directory preserved"})
	m.met.quarantined.Inc()
	m.logLocked("job %s: %s", j.ID, j.errMsg)
}

// --- worker-facing API --------------------------------------------------------

// Register admits a worker and assigns its id and cadence.
func (m *Manager) Register(_ context.Context, name string) (RegisterResponse, error) {
	m.mu.Lock()
	defer m.unlock()
	now := m.cfg.Now()
	m.nextWorker++
	w := &workerInfo{id: fmt.Sprintf("w%04d", m.nextWorker), name: name, lastSeen: now, alive: true}
	m.workers[w.id] = w
	m.workerOrder = append(m.workerOrder, w.id)
	m.sweepLocked(now) // after insertion, so the alive gauge counts the newcomer
	m.logLocked("worker %s (%s) registered", w.id, name)
	return RegisterResponse{
		WorkerID:       w.id,
		LeaseTTLMillis: m.cfg.LeaseTTL.Milliseconds(),
		PollMillis:     m.cfg.PollInterval.Milliseconds(),
	}, nil
}

// touchLocked records worker liveness on any API traffic.
func (m *Manager) touchLocked(workerID string, now time.Time) bool {
	w, ok := m.workers[workerID]
	if ok {
		w.lastSeen, w.alive = now, true
	}
	return ok
}

// Claim hands the worker one job attempt, preferring queued work and
// falling back to hedging the oldest straggler. ok=false means nothing to
// do.
func (m *Manager) Claim(_ context.Context, workerID string) (ClaimResponse, bool, error) {
	m.mu.Lock()
	now := m.cfg.Now()
	m.sweepLocked(now)
	if !m.touchLocked(workerID, now) {
		m.unlock()
		return ClaimResponse{}, false, ErrUnknownWorker
	}
	j, a := m.pickLocked(workerID, now)
	var resp ClaimResponse
	if a != nil {
		resp = ClaimResponse{JobID: j.ID, AttemptID: a.id, Spec: j.Spec, Hedge: a.hedge}
	}
	key := ""
	if j != nil {
		key = j.key
	}
	m.unlock()
	if a == nil {
		return ClaimResponse{}, false, nil
	}
	resp.HasCheckpoint = m.cas.HasCheckpoint(key)
	return resp, true, nil
}

func (m *Manager) pickLocked(workerID string, now time.Time) (*Job, *attempt) {
	for _, j := range m.order {
		if j.state == StateQueued && !j.nextEligible.After(now) {
			return j, m.grantLocked(j, workerID, false, now)
		}
	}
	if m.met.jobSeconds.Count() < hedgeMinSamples {
		return nil, nil
	}
	delay := max(time.Duration(m.met.jobSeconds.Quantile(hedgeQuantile)*float64(time.Second)), hedgeMinDelay)
	for _, j := range m.order {
		if j.state != StateRunning || len(j.active) != 1 {
			continue
		}
		p := j.active[0]
		if p.worker == workerID || p.hedge || now.Sub(p.started) < delay {
			continue
		}
		m.met.hedges.Inc()
		j.hedged = true
		m.logLocked("job %s hedged on %s (primary %s running %v > p95 %v)", j.ID, workerID, p.worker, now.Sub(p.started), delay)
		return j, m.grantLocked(j, workerID, true, now)
	}
	return nil, nil
}

func (m *Manager) grantLocked(j *Job, workerID string, hedge bool, now time.Time) *attempt {
	m.nextAttempt++
	a := &attempt{
		id:      fmt.Sprintf("a%06d", m.nextAttempt),
		worker:  workerID,
		hedge:   hedge,
		started: now,
		expires: now.Add(m.cfg.LeaseTTL),
	}
	j.active = append(j.active, a)
	m.transitionLocked(j, StateRunning)
	m.met.leasesGranted.Inc()
	return a
}

// attemptLocked resolves a lease to its job and attempt. A lease is lost
// once the attempt is gone (expired, superseded, cancelled) or the job is
// terminal.
func (m *Manager) attemptLocked(l Lease) (*Job, *attempt, error) {
	j, ok := m.jobs[l.JobID]
	if !ok {
		return nil, nil, ErrNotFound
	}
	if !j.state.Terminal() {
		for _, a := range j.active {
			if a.id == l.AttemptID {
				return j, a, nil
			}
		}
	}
	return j, nil, ErrLeaseLost
}

// liveLocked sweeps, records the worker's liveness, resolves the lease and
// extends it: every call that proves the worker alive renews.
func (m *Manager) liveLocked(l Lease) (*Job, *attempt, error) {
	now := m.cfg.Now()
	m.sweepLocked(now)
	m.touchLocked(l.WorkerID, now)
	j, a, err := m.attemptLocked(l)
	if err == nil {
		a.expires = now.Add(m.cfg.LeaseTTL)
		m.met.leasesRenewed.Inc()
	}
	return j, a, err
}

// Renew extends an attempt's lease. ErrLeaseLost tells the worker its
// ownership is gone and the session must be abandoned.
func (m *Manager) Renew(_ context.Context, l Lease) error {
	m.mu.Lock()
	defer m.unlock()
	_, _, err := m.liveLocked(l)
	return err
}

// Circuit returns a job's verbatim circuit bytes.
func (m *Manager) Circuit(_ context.Context, jobID string) ([]byte, error) {
	m.mu.Lock()
	_, ok := m.jobs[jobID]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	data, err := m.cfg.FS.ReadFile(filepath.Join(m.jobDir(jobID), "circuit"))
	if err != nil {
		return nil, fmt.Errorf("service: reading circuit of %s: %w", jobID, err)
	}
	return data, nil
}

// Checkpoint returns the newest CRC-valid checkpoint for the job's key, or
// ok=false when none is restorable. Rejected newer generations are noted
// in the job's event log.
func (m *Manager) Checkpoint(_ context.Context, jobID string) ([]byte, bool, error) {
	m.mu.Lock()
	j, ok := m.jobs[jobID]
	m.mu.Unlock()
	if !ok {
		return nil, false, ErrNotFound
	}
	gens := m.cas.gens(j.key)
	payload, gen, err := m.cas.LatestCheckpoint(j.key)
	if err != nil {
		return nil, false, err
	}
	skipped := 0
	for _, g := range gens {
		if g > gen {
			skipped++
		}
	}
	if skipped > 0 {
		msg := fmt.Sprintf("checkpoint_fallback: serving generation %d after skipping %d unusable newer generation(s)", gen, skipped)
		if gen == 0 {
			msg = fmt.Sprintf("checkpoint_fallback: all %d generation(s) unusable, restarting from the original circuit", skipped)
		}
		m.mu.Lock()
		j.publishLocked(Event{Message: msg})
		m.mu.Unlock()
	}
	if gen == 0 {
		return nil, false, nil
	}
	m.met.resumes.Inc()
	return payload, true, nil
}

// UploadCheckpoint stores a checkpoint under the job's key and renews the
// lease — progress is proof of life — and resets the job's failure
// counter: a job that checkpoints is making durable progress.
func (m *Manager) UploadCheckpoint(_ context.Context, l Lease, payload []byte) error {
	m.mu.Lock()
	j, _, err := m.liveLocked(l)
	m.unlock()
	if err != nil {
		return err
	}
	if err := m.cas.PutCheckpoint(j.key, payload); err != nil {
		return err
	}
	m.met.checkpoints.Inc()
	m.met.ckptUploads.Inc()
	m.mu.Lock()
	if j.failures != 0 {
		j.failures = 0
		m.dirty = append(m.dirty, j)
	}
	m.unlock()
	return nil
}

// UploadResult finishes an attempt: first finisher wins, the job goes Done
// and every other attempt's lease dies. The result is stored before the
// job is published Done, so every submission that sees the job done also
// finds its result: in the CAS under the job's key, or — for a timed-out
// result, which depends on the deadline and not on the key — in the job's
// own directory.
func (m *Manager) UploadResult(_ context.Context, l Lease, sum ResultSummary, aag []byte) error {
	// Validate before taking the winner slot: an unparsable body must not
	// mark the job done.
	if _, err := ParseCircuit("aag", aag); err != nil {
		return fmt.Errorf("service: rejecting result for %s: %w", l.JobID, err)
	}
	payload, err := encodeResult(sum, aag)
	if err != nil {
		return err
	}
	m.mu.Lock()
	j, _, err := m.liveLocked(l)
	m.unlock()
	if err != nil {
		return err
	}
	if sum.TimedOut {
		err = m.retry.write(m.cfg.FS, filepath.Join(m.jobDir(j.ID), resultName), frame(payload))
	} else {
		// Results are deterministic per key, so a racing finisher that
		// loses below has written the same bytes.
		err = m.cas.PutResult(j.key, payload)
	}
	if err != nil {
		m.logf("job %s: persisting result: %v", j.ID, err)
	}

	m.mu.Lock()
	defer m.unlock()
	// The lock was released for the write: the attempt must still own the
	// open job to win it.
	_, a, err := m.attemptLocked(l)
	if err != nil {
		return err
	}
	m.met.jobSeconds.Observe(m.cfg.Now().Sub(a.started).Seconds())
	if a.hedge {
		m.met.hedgeWins.Inc()
	}
	j.active = nil
	j.sum, j.errMsg, j.curErr = sum, "", sum.FinalError
	m.transitionLocked(j, StateDone)
	m.logLocked("job %s done by %s (%d iterations, error %.6g, %s)", j.ID, l.WorkerID, sum.Iterations, sum.FinalError, sum.Reason)
	return nil
}

// Fail records a worker-reported attempt failure — a panic when stack is
// set — and requeues or quarantines the job.
func (m *Manager) Fail(_ context.Context, l Lease, msg, stack string) error {
	m.mu.Lock()
	defer m.unlock()
	now := m.cfg.Now()
	m.sweepLocked(now)
	m.touchLocked(l.WorkerID, now)
	j, a, err := m.attemptLocked(l)
	if errors.Is(err, ErrLeaseLost) {
		return nil // stale report for a lease already swept
	}
	if err != nil {
		return err
	}
	for i, cur := range j.active {
		if cur == a {
			j.active = append(j.active[:i], j.active[i+1:]...)
			break
		}
	}
	if stack != "" {
		m.met.panics.Inc()
	}
	j.failures++
	j.errMsg = msg
	j.publishLocked(Event{Message: msg, Error: stack})
	m.dirty = append(m.dirty, j)
	m.logLocked("job %s attempt %s failed on %s: %s", j.ID, a.id, l.WorkerID, msg)
	if len(j.active) == 0 && j.state == StateRunning {
		m.requeueLocked(j, now, msg)
	}
	return nil
}

// Report records one step of a leased attempt: the job's live status,
// history and event log, and the step and certification metrics. A report
// into a lost lease returns ErrLeaseLost, which stops the attempt.
func (m *Manager) Report(_ context.Context, l Lease, r StepReport) error {
	m.mu.Lock()
	j, a, err := m.attemptLocked(l)
	if err == nil && !(a.hedge && len(j.active) > 1) {
		ev := r.Event
		j.sum.Iterations, j.sum.Applied, j.sum.Ands, j.curErr = ev.Iteration, r.Applied, ev.Ands, ev.Err
		if ev.Reason != "" {
			j.sum.Reason = ev.Reason
		}
		j.history = r.History
		j.publishLocked(Event{Step: &ev})
	}
	m.mu.Unlock()
	if err != nil {
		return err
	}
	m.met.iterations.Add(uint64(r.Iterations))
	if r.Event.Applied {
		m.met.lacsApplied.Inc()
	}
	if r.Event.Kind == core.EventCertRejected {
		m.met.certRejected.Inc()
	}
	m.met.stepSeconds.Observe(r.Seconds)
	for _, c := range r.Certs {
		if ctr, ok := m.met.certifyTotal[c.Backend]; ok {
			ctr.Inc()
			m.met.certifySeconds[c.Backend].Observe(c.Seconds)
		}
		m.met.satConflicts.Add(uint64(c.Conflicts))
	}
	return nil
}

// --- client-facing API --------------------------------------------------------

// Submit validates, persists and queues a new job. The circuit is parsed
// eagerly so malformed submissions fail here, not in a worker. If the store
// already holds a result for the job's key, the job completes at once as a
// cache hit.
func (m *Manager) Submit(spec JobSpec, circuit []byte) (JobStatus, error) {
	if err := spec.Normalize(); err != nil {
		return JobStatus{}, err
	}
	if spec.TimeoutSec == 0 {
		spec.TimeoutSec = m.cfg.DefaultTimeoutSec
	}
	if _, err := spec.Options(); err != nil {
		return JobStatus{}, err
	}
	g, err := ParseCircuit(spec.Format, circuit)
	if err != nil {
		return JobStatus{}, fmt.Errorf("%w: %w", ErrUnparsable, err)
	}
	j := &Job{Spec: spec, m: m, key: JobKey(spec, g), state: StateQueued}
	j.sum.Ands = g.NumAnds()
	if payload, ok := m.cas.Result(j.key); ok {
		if sum, _, derr := decodeResult(payload); derr == nil {
			j.state, j.cacheHit, j.sum, j.curErr = StateDone, true, sum, sum.FinalError
		} else {
			m.cas.corrupt("result")
		}
	}

	m.mu.Lock()
	now := m.cfg.Now()
	m.sweepLocked(now)
	queued := j.state == StateQueued
	if queued {
		if int(m.met.jobsByState[StateQueued].Value())+m.reserved >= m.cfg.QueueSize {
			m.unlock()
			return JobStatus{}, ErrQueueFull
		}
		m.reserved++
	}
	m.nextJob++
	j.ID = formatID(m.nextJob)
	j.nextEligible = now
	m.unlock()

	// The job is persisted and fully formed before it is published: once
	// workers can claim it, only lock-holding code touches it.
	err = m.createJob(j, circuit)
	m.mu.Lock()
	if queued {
		m.reserved--
	}
	if err != nil {
		m.mu.Unlock()
		_ = m.cfg.FS.RemoveAll(m.jobDir(j.ID))
		return JobStatus{}, fmt.Errorf("service: persisting job %s: %w", j.ID, err)
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j)
	m.met.jobsByState[j.state].Inc()
	m.met.submitted.Inc()
	if queued {
		m.met.queueDepth.Inc()
		m.met.cacheMisses.Inc()
		m.signal()
	} else {
		m.met.cacheHits.Inc()
		m.logLocked("job %s served from cache (key %.12s…)", j.ID, j.key)
	}
	st := j.statusLocked(false)
	m.unlock()
	return st, nil
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns every known job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.unlock()
	m.sweepLocked(m.cfg.Now())
	return append([]*Job(nil), m.order...)
}

// Cancel terminates a job. Its attempts lose their leases; their workers
// stop at their next report or renewal. Cancelling a terminal job is a
// no-op.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	if !j.state.Terminal() {
		j.active = nil
		m.transitionLocked(j, StateCancelled)
		m.logLocked("job %s: cancelled", id)
	}
	return j.statusLocked(false), nil
}

// ResultAAG returns a done job's result circuit as stored (ASCII AIGER). A
// result that rotted in the store after completion sends the job back to
// the queue for recompute and reports ErrNotDone — the caller polls again,
// exactly as for a job that has not finished yet.
func (m *Manager) ResultAAG(id string) ([]byte, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	if j.state != StateDone {
		m.mu.Unlock()
		return nil, ErrNotDone
	}
	timedOut := j.sum.TimedOut
	m.mu.Unlock()

	var payload []byte
	ok = false
	if !timedOut {
		payload, ok = m.cas.Result(j.key)
	} else if blob, err := m.cfg.FS.ReadFile(filepath.Join(m.jobDir(id), resultName)); err == nil {
		payload, err = unframe(blob)
		ok = err == nil
	}
	if ok {
		if _, aag, err := decodeResult(payload); err == nil {
			return aag, nil
		}
	}
	// Recompute: the deterministic flow reproduces the identical result
	// from the persisted circuit.
	m.mu.Lock()
	defer m.unlock()
	if j.state == StateDone {
		j.nextEligible = m.cfg.Now()
		m.transitionLocked(j, StateQueued)
		m.signal()
		m.logLocked("job %s result unreadable, requeued for recompute", id)
	}
	return nil, ErrNotDone
}
