package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/service"
)

// CoordConfig tunes a Coordinator. Zero values pick production defaults;
// tests inject a fake clock and a faultfs injector.
type CoordConfig struct {
	// Dir is the coordinator's persistence root: <Dir>/jobs/<id>/ for specs
	// and lifecycle state, <Dir>/cas/ for content-addressed blobs.
	Dir string
	// FS is the filesystem (faultfs.OS{} by default).
	FS faultfs.FS
	// Now supplies wall-clock time for leases, hedging and metrics. The
	// clock is injected — this package may not read time.Now itself
	// (alsraclint determinism rule). Required.
	Now func() time.Time
	// LeaseTTL is how long a claimed attempt stays owned without a renewal
	// (renew, checkpoint upload and result upload all renew). Default 15s.
	LeaseTTL time.Duration
	// PollInterval is the idle-claim cadence advertised to workers.
	// Default 500ms.
	PollInterval time.Duration
	// MaxWorkerFailures quarantines a job once this many *distinct* workers
	// have failed it (lease expiry or reported failure). Default 3.
	MaxWorkerFailures int
	// HedgeQuantile (default 0.95) of the observed attempt-duration
	// histogram sets the straggler threshold: a sole attempt older than the
	// quantile gets a hedge duplicate on another worker.
	HedgeQuantile float64
	// HedgeMinSamples (default 5) gates hedging until the histogram has
	// enough completions to make the quantile meaningful.
	HedgeMinSamples int
	// HedgeMinDelay floors the hedge threshold. Default 1s.
	HedgeMinDelay time.Duration
	// RedispatchBase/RedispatchMax bound the capped-backoff delay before a
	// failed job becomes claimable again. Defaults 250ms / 15s.
	RedispatchBase time.Duration
	RedispatchMax  time.Duration
	// Logf receives operational log lines; nil silences them.
	Logf func(format string, args ...any)
}

// attempt is one lease: a worker executing (or hedging) a job.
type attempt struct {
	id      string
	worker  string
	hedge   bool
	started time.Time
	expires time.Time
}

// cjob is the coordinator-side job record.
type cjob struct {
	id   string
	spec service.JobSpec
	key  string

	state         service.State
	errMsg        string
	cacheHit      bool
	active        []*attempt
	failedWorkers map[string]bool
	redispatches  int
	nextEligible  time.Time
	everHedged    bool

	sum       ResultSummary
	resultAAG []byte // decoded once, cached in memory after first read
}

// workerInfo is one registered worker.
type workerInfo struct {
	id       string
	name     string
	lastSeen time.Time
	alive    bool
}

type coordMetrics struct {
	workers       *obs.Gauge
	jobsByState   map[service.State]*obs.Gauge
	leasesGranted *obs.Counter
	leasesRenewed *obs.Counter
	leasesExpired *obs.Counter
	reassignments *obs.Counter
	hedges        *obs.Counter
	hedgeWins     *obs.Counter
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	ckptUploads   *obs.Counter
	quarantined   *obs.Counter
	casCorrupt    map[string]*obs.Counter
	jobSeconds    *obs.Histogram
}

// Coordinator shards jobs across registered workers with lease-based
// ownership. It runs no background goroutines: every lease expiry, hedge
// decision and redispatch happens lazily inside API entry points against the
// injected clock, which makes the whole state machine single-stepped and
// deterministic under test — the same discipline that keeps kill-and-resume
// bit-identical keeps the scheduler reproducible.
type Coordinator struct {
	cfg CoordConfig
	cas *CAS
	reg *obs.Registry
	met coordMetrics

	mu          sync.Mutex
	jobs        map[string]*cjob
	order       []*cjob // insertion-ordered (determinism: never range the map)
	workers     map[string]*workerInfo
	workerOrder []string
	nextJob     int
	nextWorker  int
	nextAttempt int
}

// Sentinel errors surfaced by coordinator entry points.
var (
	// ErrNotFound: no such job.
	ErrNotFound = errors.New("cluster: no such job")
	// ErrLeaseLost: the attempt no longer owns the job (expired, superseded
	// by a finished hedge, cancelled, or already terminal). HTTP 409.
	ErrLeaseLost = errors.New("cluster: lease lost")
	// ErrNotDone: result requested before the job finished.
	ErrNotDone = errors.New("cluster: job is not done")
	// ErrUnknownWorker: the worker id was never registered (or the
	// coordinator restarted); the worker must re-register.
	ErrUnknownWorker = errors.New("cluster: unknown worker")
)

// NewCoordinator builds a coordinator over cfg.Dir, recovering persisted
// jobs: terminal ones are served from the store, interrupted ones re-enter
// the queue and will resume from their key's newest CAS checkpoint.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.Dir == "" {
		return nil, errors.New("cluster: CoordConfig.Dir is required")
	}
	if cfg.Now == nil {
		return nil, errors.New("cluster: CoordConfig.Now is required")
	}
	if cfg.FS == nil {
		cfg.FS = faultfs.OS{}
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.MaxWorkerFailures <= 0 {
		cfg.MaxWorkerFailures = 3
	}
	if cfg.HedgeQuantile <= 0 || cfg.HedgeQuantile >= 1 {
		cfg.HedgeQuantile = 0.95
	}
	if cfg.HedgeMinSamples <= 0 {
		cfg.HedgeMinSamples = 5
	}
	if cfg.HedgeMinDelay <= 0 {
		cfg.HedgeMinDelay = time.Second
	}
	if cfg.RedispatchBase <= 0 {
		cfg.RedispatchBase = 250 * time.Millisecond
	}
	if cfg.RedispatchMax <= 0 {
		cfg.RedispatchMax = 15 * time.Second
	}

	cas, err := NewCAS(filepath.Join(cfg.Dir, "cas"), cfg.FS)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	met := coordMetrics{
		workers:       reg.Gauge("alsrac_cluster_workers", "registered workers considered alive"),
		jobsByState:   map[service.State]*obs.Gauge{},
		leasesGranted: reg.Counter("alsrac_cluster_leases_granted_total", "job attempts leased to workers"),
		leasesRenewed: reg.Counter("alsrac_cluster_leases_renewed_total", "lease renewals (renew, checkpoint and result uploads)"),
		leasesExpired: reg.Counter("alsrac_cluster_leases_expired_total", "leases that expired without renewal (dead or partitioned worker)"),
		reassignments: reg.Counter("alsrac_cluster_reassignments_total", "jobs requeued after losing their owning worker"),
		hedges:        reg.Counter("alsrac_cluster_hedges_total", "straggler attempts duplicated onto a second worker"),
		hedgeWins:     reg.Counter("alsrac_cluster_hedge_wins_total", "jobs finished first by their hedge attempt"),
		cacheHits:     reg.Counter("alsrac_cluster_cache_hits_total", "submissions served from the content-addressed result store"),
		cacheMisses:   reg.Counter("alsrac_cluster_cache_misses_total", "submissions that required computation"),
		ckptUploads:   reg.Counter("alsrac_cluster_checkpoints_total", "checkpoint generations uploaded by workers"),
		quarantined:   reg.Counter("alsrac_cluster_quarantined_total", "jobs quarantined after failing on MaxWorkerFailures distinct workers"),
		casCorrupt:    map[string]*obs.Counter{},
		jobSeconds:    reg.Histogram("alsrac_cluster_job_seconds", "attempt durations from claim to result", obs.LatencyBuckets()),
	}
	for _, s := range []service.State{
		service.StateQueued, service.StateRunning, service.StateDone,
		service.StateFailed, service.StateCancelled, service.StateQuarantined,
	} {
		met.jobsByState[s] = reg.Gauge("alsrac_cluster_jobs", "jobs by lifecycle state", "state", string(s))
	}
	for _, kind := range []string{"checkpoint", "result"} {
		met.casCorrupt[kind] = reg.Counter("alsrac_cluster_cas_corrupt_total", "CRC-rejected CAS entries by kind", "kind", kind)
	}
	cas.OnCorrupt = func(kind string) {
		if ctr, ok := met.casCorrupt[kind]; ok {
			ctr.Inc()
		}
	}

	co := &Coordinator{
		cfg:     cfg,
		cas:     cas,
		reg:     reg,
		met:     met,
		jobs:    map[string]*cjob{},
		workers: map[string]*workerInfo{},
	}
	if err := co.recover(); err != nil {
		return nil, err
	}
	return co, nil
}

// Registry exposes the coordinator's metrics.
func (co *Coordinator) Registry() *obs.Registry { return co.reg }

func (co *Coordinator) logf(format string, args ...any) {
	if co.cfg.Logf != nil {
		co.cfg.Logf(format, args...)
	}
}

// --- persistence -----------------------------------------------------------

// coordState is the per-job state.json payload.
type coordState struct {
	State        service.State `json:"state"`
	Error        string        `json:"error,omitempty"`
	Key          string        `json:"key"`
	CacheHit     bool          `json:"cache_hit,omitempty"`
	Redispatches int           `json:"redispatches,omitempty"`
	Summary      ResultSummary `json:"summary,omitempty"`
}

func (co *Coordinator) jobDir(id string) string {
	return filepath.Join(co.cfg.Dir, "jobs", id)
}

func (co *Coordinator) persistJob(j *cjob, circuit []byte) error {
	dir := co.jobDir(j.id)
	if err := co.cfg.FS.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cluster: creating job dir: %w", err)
	}
	specJSON, err := json.MarshalIndent(j.spec, "", "  ")
	if err != nil {
		return fmt.Errorf("cluster: encoding spec: %w", err)
	}
	if err := faultfs.WriteAtomic(co.cfg.FS, filepath.Join(dir, "spec.json"), specJSON); err != nil {
		return fmt.Errorf("cluster: persisting spec: %w", err)
	}
	if err := faultfs.WriteAtomic(co.cfg.FS, filepath.Join(dir, "circuit"), circuit); err != nil {
		return fmt.Errorf("cluster: persisting circuit: %w", err)
	}
	return co.persistState(j)
}

func (co *Coordinator) persistState(j *cjob) error {
	data, err := json.Marshal(coordState{
		State: j.state, Error: j.errMsg, Key: j.key,
		CacheHit: j.cacheHit, Redispatches: j.redispatches, Summary: j.sum,
	})
	if err != nil {
		return fmt.Errorf("cluster: encoding state: %w", err)
	}
	if err := faultfs.WriteAtomic(co.cfg.FS, filepath.Join(co.jobDir(j.id), "state.json"), data); err != nil {
		return fmt.Errorf("cluster: persisting state: %w", err)
	}
	return nil
}

// recover reloads the job table from disk. Jobs that were queued or running
// when the previous coordinator died re-enter the queue; their next claim
// resumes from the key's newest CAS checkpoint, so no iteration already made
// durable is recomputed.
func (co *Coordinator) recover() error {
	root := filepath.Join(co.cfg.Dir, "jobs")
	if err := co.cfg.FS.MkdirAll(root, 0o755); err != nil {
		return fmt.Errorf("cluster: creating jobs dir: %w", err)
	}
	entries, err := co.cfg.FS.ReadDir(root)
	if err != nil {
		return fmt.Errorf("cluster: scanning jobs dir: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "c") {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids) // zero-padded ids: lexical order is submission order
	for _, id := range ids {
		specData, err := co.cfg.FS.ReadFile(filepath.Join(co.jobDir(id), "spec.json"))
		if err != nil {
			continue // torn submission: spec.json is written first
		}
		var spec service.JobSpec
		if err := json.Unmarshal(specData, &spec); err != nil {
			continue
		}
		j := &cjob{id: id, spec: spec, state: service.StateQueued, failedWorkers: map[string]bool{}}
		if data, err := co.cfg.FS.ReadFile(filepath.Join(co.jobDir(id), "state.json")); err == nil {
			var cs coordState
			if json.Unmarshal(data, &cs) == nil {
				j.key, j.cacheHit, j.redispatches, j.sum, j.errMsg = cs.Key, cs.CacheHit, cs.Redispatches, cs.Summary, cs.Error
				if cs.State.Terminal() {
					j.state = cs.State
				}
			}
		}
		if j.key == "" {
			// Re-derive: old state.json or torn write. Needs the circuit.
			circuit, err := co.cfg.FS.ReadFile(filepath.Join(co.jobDir(id), "circuit"))
			if err != nil {
				continue
			}
			g, err := service.ParseCircuit(spec.Format, circuit)
			if err != nil {
				continue
			}
			j.key = JobKey(spec, g)
		}
		if n, err := parseJobID(id); err == nil && n >= co.nextJob {
			co.nextJob = n + 1
		}
		co.jobs[id] = j
		co.order = append(co.order, j)
		co.met.jobsByState[j.state].Inc()
	}
	return nil
}

func formatJobID(n int) string { return fmt.Sprintf("c%06d", n) }

func parseJobID(id string) (int, error) {
	var n int
	_, err := fmt.Sscanf(id, "c%06d", &n)
	return n, err
}

// --- lazy sweep ------------------------------------------------------------

// sweepLocked advances the lease state machine to `now`: attempts whose
// lease expired are discarded, their workers recorded as failures, and their
// jobs either requeued under capped backoff or quarantined once
// MaxWorkerFailures distinct workers have died holding them. Workers unseen
// for two TTLs drop out of the alive gauge. Called at every API entry with
// co.mu held — there is no background ticker to race with.
func (co *Coordinator) sweepLocked(now time.Time) {
	for _, j := range co.order {
		if len(j.active) == 0 {
			continue
		}
		kept := j.active[:0]
		for _, a := range j.active {
			if a.expires.After(now) {
				kept = append(kept, a)
				continue
			}
			co.met.leasesExpired.Inc()
			j.failedWorkers[a.worker] = true
			co.logf("cluster: job %s attempt %s: lease expired (worker %s)", j.id, a.id, a.worker)
		}
		j.active = kept
		if len(j.active) == 0 && j.state == service.StateRunning {
			co.requeueLocked(j, now, "lease expired")
		}
	}
	alive := int64(0)
	for _, id := range co.workerOrder {
		w := co.workers[id]
		wasAlive := w.alive
		w.alive = now.Sub(w.lastSeen) <= 2*co.cfg.LeaseTTL
		if wasAlive && !w.alive {
			co.logf("cluster: worker %s (%s) presumed dead", w.id, w.name)
		}
		if w.alive {
			alive++
		}
	}
	co.met.workers.Set(alive)
}

// requeueLocked returns a running job to the queue (or quarantines it) after
// it lost every active attempt.
func (co *Coordinator) requeueLocked(j *cjob, now time.Time, why string) {
	if len(j.failedWorkers) >= co.cfg.MaxWorkerFailures {
		co.transitionLocked(j, service.StateQuarantined)
		j.errMsg = fmt.Sprintf("quarantined: failed on %d distinct workers (last: %s)", len(j.failedWorkers), why)
		co.met.quarantined.Inc()
		_ = co.persistState(j)
		co.logf("cluster: job %s quarantined after %d distinct worker failures", j.id, len(j.failedWorkers))
		return
	}
	j.redispatches++
	j.nextEligible = now.Add(service.Backoff("cluster/redispatch/"+j.id, j.redispatches,
		co.cfg.RedispatchBase, co.cfg.RedispatchMax))
	co.met.reassignments.Inc()
	co.transitionLocked(j, service.StateQueued)
	_ = co.persistState(j)
	co.logf("cluster: job %s requeued (%s), eligible in %v", j.id, why, j.nextEligible.Sub(now))
}

func (co *Coordinator) transitionLocked(j *cjob, s service.State) {
	if j.state == s {
		return
	}
	co.met.jobsByState[j.state].Dec()
	j.state = s
	co.met.jobsByState[s].Inc()
}

// touchWorkerLocked records worker liveness on any API traffic.
func (co *Coordinator) touchWorkerLocked(workerID string, now time.Time) *workerInfo {
	w, ok := co.workers[workerID]
	if !ok {
		return nil
	}
	w.lastSeen = now
	w.alive = true
	return w
}

// --- worker-facing API -----------------------------------------------------

// Register admits a worker and assigns its id.
func (co *Coordinator) Register(name string) RegisterResponse {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := co.cfg.Now()
	co.nextWorker++
	w := &workerInfo{id: fmt.Sprintf("w%04d", co.nextWorker), name: name, lastSeen: now, alive: true}
	co.workers[w.id] = w
	co.workerOrder = append(co.workerOrder, w.id)
	co.sweepLocked(now) // after insertion, so the alive gauge counts the newcomer
	co.logf("cluster: worker %s (%s) registered", w.id, name)
	return RegisterResponse{
		WorkerID:       w.id,
		LeaseTTLMillis: co.cfg.LeaseTTL.Milliseconds(),
		PollMillis:     co.cfg.PollInterval.Milliseconds(),
	}
}

// Claim hands the worker one job attempt, preferring queued work and falling
// back to hedging the oldest straggler. ok=false means nothing to do.
func (co *Coordinator) Claim(workerID string) (ClaimResponse, bool, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := co.cfg.Now()
	co.sweepLocked(now)
	if co.touchWorkerLocked(workerID, now) == nil {
		return ClaimResponse{}, false, ErrUnknownWorker
	}

	// Pass 1: queued, past their backoff gate.
	for _, j := range co.order {
		if j.state != service.StateQueued || j.nextEligible.After(now) {
			continue
		}
		a := co.grantLocked(j, workerID, false, now)
		return co.claimResponseLocked(j, a), true, nil
	}

	// Pass 2: hedge the oldest sole-attempt straggler on a different worker.
	delay, ok := co.hedgeDelayLocked()
	if !ok {
		return ClaimResponse{}, false, nil
	}
	for _, j := range co.order {
		if j.state != service.StateRunning || len(j.active) != 1 {
			continue
		}
		a := j.active[0]
		if a.worker == workerID || a.hedge || now.Sub(a.started) < delay {
			continue
		}
		h := co.grantLocked(j, workerID, true, now)
		co.met.hedges.Inc()
		j.everHedged = true
		co.logf("cluster: job %s hedged on %s (primary %s running %v > p%d %v)",
			j.id, workerID, a.worker, now.Sub(a.started), int(co.cfg.HedgeQuantile*100), delay)
		return co.claimResponseLocked(j, h), true, nil
	}
	return ClaimResponse{}, false, nil
}

// hedgeDelayLocked derives the straggler threshold from the attempt-duration
// histogram: the configured quantile, floored by HedgeMinDelay, and disabled
// entirely until HedgeMinSamples completions have been observed.
func (co *Coordinator) hedgeDelayLocked() (time.Duration, bool) {
	if co.met.jobSeconds.Count() < uint64(co.cfg.HedgeMinSamples) {
		return 0, false
	}
	d := time.Duration(co.met.jobSeconds.Quantile(co.cfg.HedgeQuantile) * float64(time.Second))
	if d < co.cfg.HedgeMinDelay {
		d = co.cfg.HedgeMinDelay
	}
	return d, true
}

func (co *Coordinator) grantLocked(j *cjob, workerID string, hedge bool, now time.Time) *attempt {
	co.nextAttempt++
	a := &attempt{
		id:      fmt.Sprintf("a%06d", co.nextAttempt),
		worker:  workerID,
		hedge:   hedge,
		started: now,
		expires: now.Add(co.cfg.LeaseTTL),
	}
	j.active = append(j.active, a)
	co.transitionLocked(j, service.StateRunning)
	co.met.leasesGranted.Inc()
	return a
}

func (co *Coordinator) claimResponseLocked(j *cjob, a *attempt) ClaimResponse {
	return ClaimResponse{
		JobID:         j.id,
		AttemptID:     a.id,
		Spec:          j.spec,
		Hedge:         a.hedge,
		HasCheckpoint: co.cas.HasCheckpoint(j.key),
	}
}

// findAttemptLocked resolves (job, attempt) or reports the lease lost.
func (co *Coordinator) findAttemptLocked(jobID, attemptID string) (*cjob, *attempt, error) {
	j, ok := co.jobs[jobID]
	if !ok {
		return nil, nil, ErrNotFound
	}
	for _, a := range j.active {
		if a.id == attemptID {
			return j, a, nil
		}
	}
	return j, nil, ErrLeaseLost
}

// liveAttemptLocked is findAttemptLocked for an attempt that may still
// finish its job: a terminal job reports the lease lost.
func (co *Coordinator) liveAttemptLocked(jobID, attemptID string) (*cjob, *attempt, error) {
	j, a, err := co.findAttemptLocked(jobID, attemptID)
	if err == nil && j.state.Terminal() {
		err = ErrLeaseLost
	}
	return j, a, err
}

// Renew extends an attempt's lease. ErrLeaseLost (HTTP 409) tells the worker
// its ownership is gone and the session must be abandoned.
func (co *Coordinator) Renew(jobID, workerID, attemptID string) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := co.cfg.Now()
	co.sweepLocked(now)
	co.touchWorkerLocked(workerID, now)
	_, a, err := co.findAttemptLocked(jobID, attemptID)
	if err != nil {
		return err
	}
	a.expires = now.Add(co.cfg.LeaseTTL)
	co.met.leasesRenewed.Inc()
	return nil
}

// Circuit serves a job's verbatim circuit bytes.
func (co *Coordinator) Circuit(jobID string) ([]byte, error) {
	co.mu.Lock()
	if _, ok := co.jobs[jobID]; !ok {
		co.mu.Unlock()
		return nil, ErrNotFound
	}
	dir := co.jobDir(jobID)
	co.mu.Unlock()
	data, err := co.cfg.FS.ReadFile(filepath.Join(dir, "circuit"))
	if err != nil {
		return nil, fmt.Errorf("cluster: reading circuit of %s: %w", jobID, err)
	}
	return data, nil
}

// Checkpoint returns the newest CRC-valid checkpoint for the job's key, or
// ok=false when none is restorable.
func (co *Coordinator) Checkpoint(jobID string) ([]byte, bool, error) {
	co.mu.Lock()
	j, ok := co.jobs[jobID]
	if !ok {
		co.mu.Unlock()
		return nil, false, ErrNotFound
	}
	key := j.key
	co.mu.Unlock()
	payload, gen, err := co.cas.LatestCheckpoint(key)
	if err != nil || gen == 0 {
		return nil, false, err
	}
	return payload, true, nil
}

// UploadCheckpoint stores a checkpoint under the job's key and renews the
// lease — progress is proof of life. The payload lands in the CAS whole or
// not at all; a torn upload (short body) must be rejected by the HTTP layer
// before this point.
func (co *Coordinator) UploadCheckpoint(jobID, workerID, attemptID string, payload []byte) error {
	co.mu.Lock()
	now := co.cfg.Now()
	co.sweepLocked(now)
	co.touchWorkerLocked(workerID, now)
	j, a, err := co.findAttemptLocked(jobID, attemptID)
	if err != nil {
		co.mu.Unlock()
		return err
	}
	a.expires = now.Add(co.cfg.LeaseTTL)
	co.met.leasesRenewed.Inc()
	key := j.key
	co.mu.Unlock()

	if err := co.cas.PutCheckpoint(key, payload); err != nil {
		return err
	}
	co.met.ckptUploads.Inc()
	return nil
}

// UploadResult finishes an attempt: first finisher wins, the result lands
// in the CAS under the job's key, the job goes Done, and every other
// attempt's lease dies (its worker sees 409 at the next renew — the
// cross-machine ctx cancellation). Losing attempts get ErrLeaseLost.
func (co *Coordinator) UploadResult(jobID, workerID, attemptID string, sum ResultSummary, aag []byte) error {
	// Validate before taking the winner slot: an unparsable body must not
	// mark the job done.
	if _, err := service.ParseCircuit("aag", aag); err != nil {
		return fmt.Errorf("cluster: rejecting result for %s: %w", jobID, err)
	}
	payload, err := encodeResult(sum, aag)
	if err != nil {
		return err
	}

	co.mu.Lock()
	now := co.cfg.Now()
	co.sweepLocked(now)
	co.touchWorkerLocked(workerID, now)
	j, _, err := co.liveAttemptLocked(jobID, attemptID)
	if err != nil {
		co.mu.Unlock()
		return err
	}
	key := j.key
	co.mu.Unlock()

	// The result is stored before the job is published Done, so every
	// submission that sees the job done also finds its result in the cache.
	// Results are deterministic per key, so a racing finisher that loses
	// below has written the same bytes.
	if err := co.cas.PutResult(key, payload); err != nil {
		co.logf("cluster: job %s: persisting result: %v", jobID, err)
	}

	co.mu.Lock()
	// The lock was released for the write: the attempt must still own the
	// open job to win it.
	j, a, err := co.liveAttemptLocked(jobID, attemptID)
	if err != nil {
		co.mu.Unlock()
		return err
	}
	co.met.jobSeconds.Observe(co.cfg.Now().Sub(a.started).Seconds())
	if a.hedge {
		co.met.hedgeWins.Inc()
	}
	j.active = nil // losers' leases die with the job
	j.sum = sum
	j.resultAAG = aag
	j.errMsg = ""
	co.transitionLocked(j, service.StateDone)
	co.mu.Unlock()

	co.mu.Lock()
	_ = co.persistState(j)
	co.mu.Unlock()
	co.logf("cluster: job %s done by %s (%s%d iterations, error %.6g)",
		jobID, workerID, map[bool]string{true: "hedge, ", false: ""}[a.hedge], sum.Iterations, sum.FinalError)
	return nil
}

// Fail records a worker-reported attempt failure and requeues or quarantines
// the job.
func (co *Coordinator) Fail(jobID, workerID, attemptID, errMsg string) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := co.cfg.Now()
	co.sweepLocked(now)
	co.touchWorkerLocked(workerID, now)
	j, a, err := co.findAttemptLocked(jobID, attemptID)
	if err != nil {
		if errors.Is(err, ErrLeaseLost) {
			return nil // stale failure report for a lease already swept
		}
		return err
	}
	for i, cur := range j.active {
		if cur == a {
			j.active = append(j.active[:i], j.active[i+1:]...)
			break
		}
	}
	j.failedWorkers[workerID] = true
	j.errMsg = errMsg
	co.logf("cluster: job %s attempt %s failed on %s: %s", jobID, a.id, workerID, errMsg)
	if len(j.active) == 0 && j.state == service.StateRunning {
		co.requeueLocked(j, now, "worker-reported failure")
	}
	return nil
}

// --- client-facing API -----------------------------------------------------

// Submit accepts a job. If the content-addressed store already holds a
// CRC-valid result for the derived key, the job completes instantly as a
// cache hit; otherwise it is queued for the worker fleet.
func (co *Coordinator) Submit(spec service.JobSpec, circuit []byte) (JobStatus, error) {
	if err := spec.Normalize(); err != nil {
		return JobStatus{}, err
	}
	g, err := service.ParseCircuit(spec.Format, circuit)
	if err != nil {
		return JobStatus{}, fmt.Errorf("%w: %w", service.ErrUnparsable, err)
	}
	key := JobKey(spec, g)

	co.mu.Lock()
	now := co.cfg.Now()
	co.sweepLocked(now)
	co.nextJob++
	j := &cjob{
		id:            formatJobID(co.nextJob),
		spec:          spec,
		key:           key,
		state:         service.StateQueued,
		failedWorkers: map[string]bool{},
		nextEligible:  now,
	}
	co.mu.Unlock()

	// The job is persisted, cache-checked and fully formed *before* it is
	// published into the table: once workers can claim it, only lock-holding
	// code may touch it.
	if payload, ok := co.cas.Result(key); ok {
		if sum, aag, derr := decodeResult(payload); derr == nil {
			j.cacheHit = true
			j.sum = sum
			j.resultAAG = aag
			j.state = service.StateDone
			co.met.cacheHits.Inc()
			if err := co.persistJob(j, circuit); err != nil {
				co.logf("cluster: job %s: persisting cache-hit job: %v", j.id, err)
			}
			co.publishJob(j)
			co.logf("cluster: job %s served from cache (key %.12s…)", j.id, key)
			return co.Status(j.id)
		}
		// decode failure counts as corruption: fall through to recompute
		co.cas.corrupt("result")
	}
	co.met.cacheMisses.Inc()
	if err := co.persistJob(j, circuit); err != nil {
		j.state = service.StateFailed
		j.errMsg = err.Error()
		co.publishJob(j)
		return JobStatus{}, err
	}
	co.publishJob(j)
	co.logf("cluster: job %s queued (key %.12s…)", j.id, key)
	return co.Status(j.id)
}

// publishJob (which takes the lock itself) inserts a fully-initialized
// lock itself), making it visible to claims and status reads.
func (co *Coordinator) publishJob(j *cjob) {
	co.mu.Lock()
	co.jobs[j.id] = j
	co.order = append(co.order, j)
	co.met.jobsByState[j.state].Inc()
	co.mu.Unlock()
}

// Cancel terminates a job. Active attempts lose their leases; their workers
// observe 409 at the next renew and abandon the session.
func (co *Coordinator) Cancel(jobID string) (JobStatus, error) {
	co.mu.Lock()
	j, ok := co.jobs[jobID]
	if !ok {
		co.mu.Unlock()
		return JobStatus{}, ErrNotFound
	}
	if !j.state.Terminal() {
		j.active = nil
		co.transitionLocked(j, service.StateCancelled)
		_ = co.persistState(j)
	}
	co.mu.Unlock()
	return co.Status(jobID)
}

// Status snapshots one job.
func (co *Coordinator) Status(jobID string) (JobStatus, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	j, ok := co.jobs[jobID]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	return co.statusLocked(j), nil
}

func (co *Coordinator) statusLocked(j *cjob) JobStatus {
	st := JobStatus{
		ID:           j.id,
		Spec:         j.spec,
		State:        j.state,
		Error:        j.errMsg,
		Key:          j.key,
		CacheHit:     j.cacheHit,
		Hedged:       j.everHedged,
		Redispatches: j.redispatches,
		Iterations:   j.sum.Iterations,
		Applied:      j.sum.Applied,
		Ands:         j.sum.Ands,
		FinalError:   j.sum.FinalError,
		Reason:       j.sum.Reason,
	}
	var owners []string
	for _, a := range j.active {
		owners = append(owners, a.worker)
	}
	st.Worker = strings.Join(owners, ",")
	return st
}

// Jobs lists every job in submission order.
func (co *Coordinator) Jobs() []JobStatus {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := co.cfg.Now()
	co.sweepLocked(now)
	out := make([]JobStatus, 0, len(co.order))
	for _, j := range co.order {
		out = append(out, co.statusLocked(j))
	}
	return out
}

// ResultAAG returns a done job's result circuit bytes. A job whose CAS
// result entry rotted after completion is requeued for recompute and
// reported ErrNotDone — the caller polls again, exactly as for a job that
// has not finished yet.
func (co *Coordinator) ResultAAG(jobID string) ([]byte, error) {
	co.mu.Lock()
	j, ok := co.jobs[jobID]
	if !ok {
		co.mu.Unlock()
		return nil, ErrNotFound
	}
	if j.state != service.StateDone {
		co.mu.Unlock()
		return nil, ErrNotDone
	}
	if j.resultAAG != nil {
		aag := j.resultAAG
		co.mu.Unlock()
		return aag, nil
	}
	key := j.key
	co.mu.Unlock()

	payload, ok := co.cas.Result(key)
	if ok {
		if sum, aag, err := decodeResult(payload); err == nil {
			co.mu.Lock()
			j.sum = sum
			j.resultAAG = aag
			co.mu.Unlock()
			return aag, nil
		}
		co.cas.corrupt("result")
	}
	// Corrupt-entry fallback to recompute: the deterministic flow will
	// reproduce the identical result from the persisted circuit.
	co.mu.Lock()
	now := co.cfg.Now()
	if j.state == service.StateDone && j.resultAAG == nil {
		co.transitionLocked(j, service.StateQueued)
		j.nextEligible = now
		_ = co.persistState(j)
		co.logf("cluster: job %s result unreadable in CAS, requeued for recompute", j.id)
	}
	co.mu.Unlock()
	return nil, ErrNotDone
}
