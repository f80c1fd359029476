package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aig"
	"repro/internal/aiger"
	"repro/internal/bench"
	"repro/internal/cell"
	"repro/internal/cluster"
	"repro/internal/errest"
	"repro/internal/mapper"
	"repro/internal/opt"
	"repro/internal/service"
	"repro/internal/sim"
)

type engine int

const (
	engineDaemon  engine = iota // service.Manager behind service.NewHandler
	engineCluster               // cluster coordinator + 2 in-process workers
)

const (
	// jobClients closed-loop clients and jobWorkers engine workers keep the
	// load within the 2 CPUs of the reference host.
	jobClients = 2
	jobWorkers = 2
	// A batch is the unit of one pass: jobUnique distinct jobs, each circuit
	// equally often, plus jobDups exact resubmissions of earlier ones (20%).
	jobUnique = 40
	jobDups   = 10
	// jobThreshold, jobEval: ER <= 0.05 on 1024 evaluation patterns, so a job
	// computes for 10-100 ms and per-job overhead stays a visible share.
	jobThreshold = 0.05
	jobEval      = 1024
	// daemonPoll is the clients' status poll interval against the daemon.
	// clusterPoll is the poll interval of clients and workers against the
	// coordinator; its 500 ms default would make the run poll-bound.
	daemonPoll  = 2 * time.Millisecond
	clusterPoll = 10 * time.Millisecond
	// jobTimeout fails a job that does not finish; no healthy job is near it.
	jobTimeout = 60 * time.Second
	// recomputeSample jobs per checked batch are recomputed in-process with
	// the library and compared byte for byte with the served result.
	recomputeSample = 4
	// minBatches is the least number of batches a run makes (twice that in a
	// traced run, half of them traced). The resident set is read after
	// them: the engines keep every finished job in memory, so a later reading
	// would grow with how many batches the deadline allowed.
	minBatches = 3
)

// jobCircuitNames are the job stream's circuits: small control and
// arithmetic blocks from the paper's suites.
var jobCircuitNames = []string{"decoder", "router", "alu4", "int2float", "ctrl"}

type jobCircuit struct {
	name  string
	body  []byte     // the pre-optimized circuit as submitted (AIGER aag)
	graph *aig.Graph // body parsed back: the circuit the engine sees
}

type jobItem struct {
	circuit int
	seed    int64
	dupOf   int // index in the batch of the job this one resubmits, or -1
}

func (it jobItem) query() string {
	return fmt.Sprintf("metric=er&threshold=%g&eval=%d&workers=1&seed=%d", jobThreshold, jobEval, it.seed)
}

func (it jobItem) spec() service.JobSpec {
	return service.JobSpec{Metric: "er", Threshold: jobThreshold, EvalPatterns: jobEval, Workers: 1, Seed: it.seed}
}

// jobOut is one job as its client saw it.
type jobOut struct {
	id          string
	state       string
	finalErr    float64
	cacheHit    bool
	result      []byte
	start       time.Time
	ack         time.Time // submit response received
	firstActive time.Time // first status not "queued"
	done        time.Time // status "done" observed
	lat         time.Duration
	err         error
}

// jobsRunner drives one engine through its HTTP API.
type jobsRunner struct {
	kind     engine
	seed     int64
	base     string
	client   *http.Client
	clientRT *recordingTransport
	workerRT []*recordingTransport
	circuits []jobCircuit
}

// openJobs builds the job circuits, starts the engine and its HTTP server on
// loopback, runs a warm-up job per circuit, hands the running system to use,
// and tears everything down.
func openJobs(seed int64, dir string, kind engine, use func(runner) error) error {
	r := &jobsRunner{kind: kind, seed: seed}
	for _, name := range jobCircuitNames {
		var body bytes.Buffer
		if err := aiger.Write(&body, opt.Optimize(bench.Get(name)), "aag"); err != nil {
			return fmt.Errorf("encoding %s: %w", name, err)
		}
		g, err := aiger.Read(bytes.NewReader(body.Bytes()))
		if err != nil {
			return fmt.Errorf("parsing %s back: %w", name, err)
		}
		r.circuits = append(r.circuits, jobCircuit{name: name, body: body.Bytes(), graph: g})
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listening on loopback: %w", err)
	}
	r.base = "http://" + ln.Addr().String()
	r.clientRT = newRecordingTransport(jobClients)
	r.client = &http.Client{Transport: r.clientRT}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var engineWG, serverWG sync.WaitGroup
	var handler http.Handler
	switch kind {
	case engineDaemon:
		m, err := service.New(service.Config{Dir: filepath.Join(dir, "daemon"), Workers: jobWorkers, QueueSize: 4096, Now: time.Now})
		if err != nil {
			ln.Close()
			return fmt.Errorf("starting the daemon: %w", err)
		}
		handler = service.NewHandler(m)
		engineWG.Add(1)
		go func() {
			defer engineWG.Done()
			m.Run(ctx)
		}()
	case engineCluster:
		co, err := cluster.NewCoordinator(cluster.CoordConfig{Dir: filepath.Join(dir, "coordinator"), Now: time.Now, PollInterval: clusterPoll})
		if err != nil {
			ln.Close()
			return fmt.Errorf("starting the coordinator: %w", err)
		}
		handler = cluster.NewHandler(co)
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	serveErr := make([]error, 1)
	serverWG.Add(1)
	go func() {
		defer serverWG.Done()
		serveErr[0] = srv.Serve(ln)
	}()
	var startErr error
	if kind == engineCluster {
		for w := 0; w < jobWorkers; w++ {
			rt := newRecordingTransport(w + jobClients + 1)
			r.workerRT = append(r.workerRT, rt)
			wk, err := cluster.NewWorker(cluster.WorkerConfig{
				Join: r.base, Name: fmt.Sprintf("bench-%d", w+1), Client: &http.Client{Transport: rt},
				Now: time.Now, PollInterval: clusterPoll,
			})
			if err != nil {
				startErr = fmt.Errorf("starting a cluster worker: %w", err)
				break
			}
			engineWG.Add(1)
			go func() {
				defer engineWG.Done()
				_ = wk.Run(ctx) // returns ctx.Err() once the run is over
			}()
		}
	}

	err = startErr
	if err == nil {
		err = r.warmUp()
	}
	if err == nil {
		err = use(r)
	}
	// Workers and the daemon's job loop stop first (a cluster worker may
	// still upload a farewell checkpoint), then the server.
	cancel()
	engineWG.Wait()
	shutCtx, done := context.WithTimeout(context.Background(), 10*time.Second)
	defer done()
	if serr := srv.Shutdown(shutCtx); err == nil && serr != nil {
		err = fmt.Errorf("shutting the server down: %w", serr)
	}
	serverWG.Wait()
	if err == nil && serveErr[0] != nil && !errors.Is(serveErr[0], http.ErrServerClosed) {
		err = fmt.Errorf("serving: %w", serveErr[0])
	}
	r.client.CloseIdleConnections()
	return err
}

// warmUp runs one job per circuit so connections, caches and lazy
// initialization are in place before timing starts.
func (r *jobsRunner) warmUp() error {
	seeds := flowSeeds(r.seed, -1, len(r.circuits))
	for i := range r.circuits {
		jo := r.runJob(context.Background(), jobItem{circuit: i, seed: seeds[i], dupOf: -1})
		if jo.err != nil {
			return fmt.Errorf("warm-up job on %s: %w", r.circuits[i].name, jo.err)
		}
		if jo.state != "done" {
			return fmt.Errorf("warm-up job on %s ended %q", r.circuits[i].name, jo.state)
		}
	}
	return nil
}

// drawBatch builds batch b of the job stream: each circuit jobUnique/5
// times with seeded flow seeds, in seeded order, with jobDups exact
// resubmissions at seeded positions, each of a job at least three places
// earlier (usually finished by then).
func drawBatch(seed int64, b, nCircuits int) []jobItem {
	rng := rand.New(rand.NewSource(mix(seed, int64(b))))
	uniques := make([]jobItem, jobUnique)
	for i := range uniques {
		uniques[i] = jobItem{circuit: i % nCircuits, seed: rng.Int63n(1<<30) + 1, dupOf: -1}
	}
	rng.Shuffle(len(uniques), func(i, j int) { uniques[i], uniques[j] = uniques[j], uniques[i] })
	n := jobUnique + jobDups
	isDup := make([]bool, n)
	for _, p := range rng.Perm(n - 4)[:jobDups] {
		isDup[p+4] = true
	}
	items := make([]jobItem, 0, n)
	var origins []int // batch indices of unique jobs
	for i := 0; i < n; i++ {
		if isDup[i] {
			var cands []int
			for _, o := range origins {
				if o <= i-3 {
					cands = append(cands, o)
				}
			}
			if len(cands) > 0 {
				o := cands[rng.Intn(len(cands))]
				items = append(items, jobItem{circuit: items[o].circuit, seed: items[o].seed, dupOf: o})
				continue
			}
		}
		origins = append(origins, i)
		items = append(items, uniques[0])
		uniques = uniques[1:]
	}
	return items
}

type batchOut struct {
	items   []jobItem
	jobs    []jobOut
	dur     time.Duration
	traced  bool
	checked bool
}

// runBatch lets jobClients closed-loop clients work through the batch.
func (r *jobsRunner) runBatch(items []jobItem) batchOut {
	jobs := make([]jobOut, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < jobClients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			ctx := context.WithValue(context.Background(), laneKey{}, lane)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				jobs[i] = r.runJob(ctx, items[i])
			}
		}(c + 1)
	}
	wg.Wait()
	return batchOut{items: items, jobs: jobs, dur: time.Since(t0)}
}

type jobStatus struct {
	ID         string  `json:"id"`
	State      string  `json:"state"`
	FinalError float64 `json:"final_error"`
	CacheHit   bool    `json:"cache_hit"`
	Error      string  `json:"error"`
}

// runJob submits one job, polls its status until it is terminal, and
// fetches the result.
func (r *jobsRunner) runJob(ctx context.Context, it jobItem) jobOut {
	jo := jobOut{start: time.Now()}
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	var st jobStatus
	body, code, err := r.do(ctx, http.MethodPost, "/jobs?"+it.query(), r.circuits[it.circuit].body)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit returned %d: %s", code, strings.TrimSpace(string(body)))
	}
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	if err != nil {
		jo.err = fmt.Errorf("submit: %w", err)
		return jo
	}
	jo.ack, jo.id, jo.cacheHit = time.Now(), st.ID, st.CacheHit
	poll, statusPath := daemonPoll, "/jobs/"+st.ID+"?history=0"
	if r.kind == engineCluster {
		poll, statusPath = clusterPoll, "/jobs/"+st.ID
	}
	for !terminal(st.State) {
		if err := sleepCtx(ctx, poll); err != nil {
			jo.err = fmt.Errorf("job %s: waiting: %w", st.ID, err)
			return jo
		}
		body, code, err := r.do(ctx, http.MethodGet, statusPath, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status returned %d", code)
		}
		if err == nil {
			err = json.Unmarshal(body, &st)
		}
		if err != nil {
			jo.err = fmt.Errorf("job %s: status: %w", jo.id, err)
			return jo
		}
		if st.State != "queued" && jo.firstActive.IsZero() {
			jo.firstActive = time.Now()
		}
	}
	jo.done = time.Now()
	if jo.firstActive.IsZero() {
		jo.firstActive = jo.done
	}
	jo.state, jo.finalErr = st.State, st.FinalError
	if st.State != "done" {
		jo.err = fmt.Errorf("job %s ended %s: %s", jo.id, st.State, st.Error)
		return jo
	}
	res, code, err := r.do(ctx, http.MethodGet, "/jobs/"+jo.id+"/result", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result returned %d", code)
	}
	if err != nil {
		jo.err = fmt.Errorf("job %s: result: %w", jo.id, err)
		return jo
	}
	jo.result = res
	jo.lat = time.Since(jo.start)
	if lane, ok := ctx.Value(laneKey{}).(int); ok {
		r.clientRT.record(span{Name: "http.job", Req: jo.id, Lane: lane, Start: jo.start, End: jo.start.Add(jo.lat)})
	}
	return jo
}

func terminal(state string) bool {
	switch state {
	case "done", "failed", "cancelled", "quarantined":
		return true
	}
	return false
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (r *jobsRunner) do(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// measure runs batches until about the deadline. In a traced run, batches
// alternate untraced and traced, so the trace overhead is measured and the
// recomputation check covers both.
func (r *jobsRunner) measure(seconds time.Duration, tr *tracer) (outcome, error) {
	out := outcome{metrics: map[string]float64{}}
	var batches []batchOut
	var durs []float64
	start := time.Now()
	least := minBatches
	if tr != nil {
		least *= 2
	}
	batch := func(b int) {
		traced := tr != nil && b%2 == 1
		r.setTracing(traced)
		bo := r.runBatch(drawBatch(r.seed, b, len(r.circuits)))
		r.setTracing(false)
		bo.traced = traced
		bo.checked = b < 2
		batches = append(batches, bo)
		durs = append(durs, bo.dur.Seconds())
	}
	var rss float64
	for b := 0; b < least || beforeDeadline(start, seconds, durs); b++ {
		batch(b)
		if b == least-1 {
			rss = residentMB()
		}
	}
	for i := range batches {
		r.check(&out, &batches[i])
	}
	out.metrics["rss_mb"] = rss
	if tr != nil {
		r.layerMetrics(&out, batches, tr)
		return out, nil
	}
	r.endToEnd(&out, batches)
	return out, nil
}

func (r *jobsRunner) setTracing(on bool) {
	r.clientRT.on.Store(on)
	for _, rt := range r.workerRT {
		rt.on.Store(on)
	}
}

// check verifies every job of a batch: done, a well-formed result whose
// error re-evaluated from scratch equals the reported one and meets the
// threshold, resubmissions byte-identical to their originals, and (on the
// first untraced and first traced batch) a sample recomputed in-process.
func (r *jobsRunner) check(out *outcome, bo *batchOut) {
	recomputed := 0
	for i, jo := range bo.jobs {
		out.attempted++
		it := bo.items[i]
		if jo.err != nil {
			out.failf("%v", jo.err)
			continue
		}
		c := r.circuits[it.circuit]
		g, err := aiger.Read(bytes.NewReader(jo.result))
		if err != nil {
			out.failf("job %s (%s): result does not parse: %v", jo.id, c.name, err)
			continue
		}
		if err := g.CheckStrict(); err != nil {
			out.failf("job %s (%s): result fails CheckStrict: %v", jo.id, c.name, err)
		}
		pats := sim.UniformN(c.graph.NumPIs(), jobEval, it.seed)
		if e := errest.NewEvaluator(c.graph, pats, errest.ER).EvalGraph(g, pats); e != jo.finalErr || e > jobThreshold {
			out.failf("job %s (%s): re-evaluated error %.17g, reported %.17g, threshold %g", jo.id, c.name, e, jo.finalErr, jobThreshold)
		}
		if it.dupOf >= 0 && bo.jobs[it.dupOf].err == nil && !bytes.Equal(jo.result, bo.jobs[it.dupOf].result) {
			out.failf("job %s (%s): resubmission result differs from job %s", jo.id, c.name, bo.jobs[it.dupOf].id)
		}
		if bo.checked && it.dupOf < 0 && recomputed < recomputeSample {
			recomputed++
			if err := recompute(c, it, jo.result); err != nil {
				out.failf("job %s (%s): %v", jo.id, c.name, err)
			}
		}
	}
}

// recompute runs the job's spec in-process exactly as a worker builds it and
// compares the AIGER bytes with the served result.
func recompute(c jobCircuit, it jobItem, served []byte) error {
	spec := it.spec()
	if err := spec.Normalize(); err != nil {
		return err
	}
	s, err := service.BuildSession(spec, c.body)
	if err != nil {
		return err
	}
	for !s.Done() {
		if _, err := s.Step(context.Background()); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	if err := aiger.Write(&buf, s.Result().Graph, "aag"); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), served) {
		return errors.New("served result differs from an in-process run of the same spec")
	}
	return nil
}

func (r *jobsRunner) endToEnd(out *outcome, batches []batchOut) {
	var durs []float64
	var lats []float64
	var total time.Duration
	for _, bo := range batches {
		durs = append(durs, bo.dur.Seconds())
		total += bo.dur
		for _, jo := range bo.jobs {
			if jo.err == nil {
				lats = append(lats, ms(jo.lat))
			}
		}
	}
	m := out.metrics
	m["wall_s"] = median(durs)
	m["op_p50_ms"] = percentile(lats, 50)
	m["op_p90_ms"] = percentile(lats, 90)
	m["ops_per_s"] = float64(len(lats)) / total.Seconds()

	// QoR over the first batch's distinct jobs, whose inputs the seed fixes.
	lib := cell.MCNC()
	base := make([]mapper.CellResult, len(r.circuits))
	for i, c := range r.circuits {
		base[i] = mapper.MapCells(c.graph, lib)
	}
	var ands, areas, delays []float64
	first := batches[0]
	for i, jo := range first.jobs {
		it := first.items[i]
		if it.dupOf >= 0 || jo.err != nil {
			continue
		}
		g, err := aiger.Read(bytes.NewReader(jo.result))
		if err != nil {
			continue
		}
		c, fin := r.circuits[it.circuit], mapper.MapCells(g, lib)
		ands = append(ands, ratio(float64(g.NumAnds()), float64(c.graph.NumAnds())))
		areas = append(areas, ratio(fin.Area, base[it.circuit].Area))
		delays = append(delays, ratio(fin.Delay, base[it.circuit].Delay))
	}
	m["and_ratio"] = geomean(ands)
	m["area_ratio"] = geomean(areas)
	m["delay_ratio"] = geomean(delays)
}

// layerMetrics derives the per-layer metrics of the traced batches from the
// client's and workers' request spans and the engine's /metrics counters.
func (r *jobsRunner) layerMetrics(out *outcome, batches []batchOut, tr *tracer) {
	m := out.metrics
	var untraced, traced []float64
	var queue, run []float64
	var hits, jobs float64
	tracedIDs := map[string]bool{}
	ack := map[string]time.Time{}
	for _, bo := range batches {
		if !bo.traced {
			untraced = append(untraced, bo.dur.Seconds())
			continue
		}
		traced = append(traced, bo.dur.Seconds())
		for _, jo := range bo.jobs {
			if jo.err != nil {
				continue
			}
			jobs++
			tracedIDs[jo.id] = true
			ack[jo.id] = jo.ack
			if jo.cacheHit {
				hits++
			}
			queue = append(queue, ms(jo.firstActive.Sub(jo.ack)))
			run = append(run, ms(jo.done.Sub(jo.firstActive)))
		}
	}
	m["trace.overhead_pct"] = 100 * (median(traced) - median(untraced)) / median(untraced)

	clientSpans := r.clientRT.take()
	byName := map[string][]float64{}
	for _, s := range clientSpans {
		byName[s.Name] = append(byName[s.Name], ms(s.dur()))
	}
	tr.add(clientSpans...)
	m["http.submit_ms"] = median(byName["http.submit"])
	m["http.status_ms"] = median(byName["http.status"])
	m["http.result_ms"] = median(byName["http.result"])
	m["http.status_polls"] = ratio(float64(len(byName["http.status"])), jobs)

	checkpoints := r.scrapeCounter("alsrac_checkpoints_total")
	if r.kind == engineDaemon {
		m["service.queue_ms"] = median(queue)
		m["service.run_ms"] = median(run)
		m["service.checkpoints"] = ratio(checkpoints, r.jobsServed(batches))
		return
	}

	var workerSpans []span
	claims, idle := 0.0, 0.0
	for _, rt := range r.workerRT {
		workerSpans = append(workerSpans, rt.take()...)
		c, i := rt.claimCounts()
		claims += c
		idle += i
	}
	tr.add(workerSpans...)
	claimed := map[string]time.Time{}
	uploaded := map[string]time.Time{}
	wByName := map[string][]float64{}
	for _, s := range workerSpans {
		wByName[s.Name] = append(wByName[s.Name], ms(s.dur()))
		switch s.Name {
		case "cluster.claim":
			if _, ok := claimed[s.Req]; !ok && s.Req != "" {
				claimed[s.Req] = s.End
			}
		case "cluster.result":
			uploaded[s.Req] = s.Start
		}
	}
	var cq, compute []float64
	for id := range tracedIDs {
		if c, ok := claimed[id]; ok {
			cq = append(cq, ms(c.Sub(ack[id])))
			if u, ok := uploaded[id]; ok {
				compute = append(compute, ms(u.Sub(c)))
			}
		}
	}
	m["cluster.queue_ms"] = median(cq)
	m["cluster.compute_ms"] = median(compute)
	for _, name := range []string{"claim", "circuit", "checkpoint", "result"} {
		m["cluster."+name+"_ms"] = median(wByName["cluster."+name])
	}
	m["cluster.idle_claim_ratio"] = ratio(idle, claims)
	m["cluster.cache_hit_ratio"] = ratio(hits, jobs)
	m["cluster.checkpoints"] = ratio(r.scrapeCounter("alsrac_cluster_checkpoints_total"), r.jobsServed(batches))
}

// jobsServed counts every job the engine ran, warm-up included, as the base
// of the per-job /metrics counters.
func (r *jobsRunner) jobsServed(batches []batchOut) float64 {
	n := float64(len(r.circuits))
	for _, bo := range batches {
		n += float64(len(bo.jobs))
	}
	return n
}

// scrapeCounter reads one unlabeled counter from the engine's /metrics.
func (r *jobsRunner) scrapeCounter(name string) float64 {
	body, code, err := r.do(context.Background(), http.MethodGet, "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// --- request tracing at the HTTP client boundary -----------------------------

type laneKey struct{}

// recordingTransport is the http.RoundTripper of the job clients and of each
// cluster worker's WorkerConfig.Client. While on, it records one span per
// request, from the request to the end of its response body, named after
// the API route and keyed by the job it concerns.
type recordingTransport struct {
	base http.RoundTripper
	lane int
	on   atomic.Bool

	mu         sync.Mutex
	spans      []span
	claims     float64
	idleClaims float64
}

func newRecordingTransport(lane int) *recordingTransport {
	return &recordingTransport{
		base: &http.Transport{MaxConnsPerHost: jobClients, MaxIdleConnsPerHost: jobClients, DisableCompression: true},
		lane: lane,
	}
}

func (t *recordingTransport) record(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
}

func (t *recordingTransport) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

func (t *recordingTransport) claimCounts() (claims, idle float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.claims, t.idleClaims
}

func (t *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.on.Load() {
		return t.base.RoundTrip(req)
	}
	name, id := route(req.Method, req.URL)
	lane := t.lane
	if l, ok := req.Context().Value(laneKey{}).(int); ok {
		lane = l
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.record(span{Name: name, Req: id, Lane: lane, Start: start, End: time.Now()})
		return resp, err
	}
	if name == "http.submit" || name == "cluster.claim" {
		// The job id of these two arrives in the response body.
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(data))
		var v struct {
			ID    string `json:"id"`
			JobID string `json:"job_id"`
		}
		if rerr == nil && json.Unmarshal(data, &v) == nil {
			id = v.ID + v.JobID
		}
		if name == "cluster.claim" {
			t.mu.Lock()
			t.claims++
			if resp.StatusCode == http.StatusNoContent {
				t.idleClaims++
			}
			t.mu.Unlock()
		}
		t.record(span{Name: name, Req: id, Lane: lane, Start: start, End: time.Now()})
		return resp, nil
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		t.record(span{Name: name, Req: id, Lane: lane, Start: start, End: time.Now()})
	}}
	return resp, nil
}

// timedBody reports when the response body has been consumed and closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// route names a request by API route and extracts the job id from its path.
func route(method string, u *url.URL) (name, id string) {
	parts := strings.Split(strings.Trim(u.Path, "/"), "/")
	switch {
	case len(parts) == 1 && parts[0] == "jobs" && method == http.MethodPost:
		return "http.submit", ""
	case len(parts) == 2 && parts[0] == "jobs":
		return "http.status", parts[1]
	case len(parts) == 3 && parts[0] == "jobs" && parts[2] == "result":
		return "http.result", parts[1]
	case len(parts) == 2 && parts[0] == "cluster":
		return "cluster." + parts[1], ""
	case len(parts) == 4 && parts[0] == "cluster" && parts[1] == "jobs":
		return "cluster." + parts[3], parts[2]
	}
	return "http.other", ""
}
