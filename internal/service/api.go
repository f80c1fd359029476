package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/aiger"
	"repro/internal/blif"
	"repro/internal/verilog"
)

// maxCircuitBytes bounds POST /jobs bodies; industrial AIGs are a few MB,
// so 64 MiB is generous while still stopping an accidental firehose.
const maxCircuitBytes = 64 << 20

// defaultEventWriteTimeout bounds a single NDJSON event write on the
// /jobs/{id}/events stream. The server deliberately runs with no global
// WriteTimeout (the stream is long-lived); this per-write deadline is what
// keeps a stalled consumer from pinning the handler goroutine and its
// subscription forever.
const defaultEventWriteTimeout = 30 * time.Second

// HandlerOptions tunes NewHandlerOpts.
type HandlerOptions struct {
	// EventWriteTimeout is the per-write deadline on the NDJSON event
	// stream: a subscriber that does not drain one event within it is
	// disconnected. Zero means defaultEventWriteTimeout; negative disables
	// the deadline (tests of the legacy behavior only).
	EventWriteTimeout time.Duration
}

// NewHandler exposes the engine's client API over HTTP with default
// options (internal/cluster adds the worker wire on top):
//
//	POST   /jobs              submit (body = circuit; params in the query)
//	GET    /jobs              list all jobs as {"jobs": [...]}
//	GET    /jobs/{id}         status + iteration history (?history=0 to omit)
//	GET    /jobs/{id}/events  NDJSON progress stream (?from=N to replay)
//	GET    /jobs/{id}/result  optimized circuit (?format=aag|aig|blif|v)
//	DELETE /jobs/{id}         cancel
//	GET    /healthz           liveness
//	GET    /metrics           Prometheus text exposition
func NewHandler(m *Manager) http.Handler {
	return NewHandlerOpts(m, HandlerOptions{})
}

// NewHandlerOpts is NewHandler with explicit options.
func NewHandlerOpts(m *Manager, opts HandlerOptions) http.Handler {
	if opts.EventWriteTimeout == 0 {
		opts.EventWriteTimeout = defaultEventWriteTimeout
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) { handleSubmit(m, w, r) })
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) { handleList(m, w, r) })
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) { handleStatus(m, w, r) })
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) { handleEvents(m, opts, w, r) })
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) { handleResult(m, w, r) })
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) { handleCancel(m, w, r) })
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { handleHealthz(m, w, r) })
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.Registry().WritePrometheus(w)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError emits the structured error body {"error": ..., "code": ...}:
// a human-readable message plus a stable machine-matchable code, so clients
// can branch without parsing prose.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, map[string]string{
		"error": fmt.Sprintf(format, args...),
		"code":  code,
	})
}

// jobParams are the POST /jobs query parameters specFromQuery reads.
var jobParams = []string{"metric", "format", "threshold", "seed", "eval", "n", "l", "t", "r",
	"maxstall", "maxdepth", "workers", "timeout", "maxerror", "certbudget", "windowed"}

// specFromQuery builds a JobSpec from POST /jobs query parameters. Every
// knob mirrors a cmd/alsrac flag, and like alsrac with an unknown flag it
// refuses a parameter it does not read.
func specFromQuery(r *http.Request) (JobSpec, error) {
	q := r.URL.Query()
	var unknown []string
	for key := range q {
		if !slices.Contains(jobParams, key) {
			unknown = append(unknown, strconv.Quote(key))
		}
	}
	if len(unknown) > 0 {
		slices.Sort(unknown)
		return JobSpec{}, fmt.Errorf("unknown parameter %s", strings.Join(unknown, ", "))
	}
	spec := JobSpec{
		Metric: q.Get("metric"),
		Format: q.Get("format"),
	}
	// An absent metric normalizes to the default inside JobSpec.Normalize —
	// the same path a persisted spec without the field takes.
	var err error
	parseF := func(key string, dst *float64) {
		if err != nil || !q.Has(key) {
			return
		}
		if v, perr := strconv.ParseFloat(q.Get(key), 64); perr == nil {
			*dst = v
		} else {
			err = fmt.Errorf("bad %s=%q", key, q.Get(key))
		}
	}
	parseI := func(key string, dst *int) {
		if err != nil || !q.Has(key) {
			return
		}
		if v, perr := strconv.Atoi(q.Get(key)); perr == nil {
			*dst = v
		} else {
			err = fmt.Errorf("bad %s=%q", key, q.Get(key))
		}
	}
	spec.Threshold = 0.01
	parseF("threshold", &spec.Threshold)
	if q.Has("seed") {
		if v, perr := strconv.ParseInt(q.Get("seed"), 10, 64); perr == nil {
			spec.Seed = v
		} else {
			err = fmt.Errorf("bad seed=%q", q.Get("seed"))
		}
	}
	parseI("eval", &spec.EvalPatterns)
	parseI("n", &spec.InitialRounds)
	parseI("l", &spec.MaxLACsPerNode)
	parseI("t", &spec.Patience)
	parseF("r", &spec.Scale)
	parseI("maxstall", &spec.MaxStall)
	parseF("maxdepth", &spec.MaxDepthRatio)
	parseI("workers", &spec.Workers)
	parseF("timeout", &spec.TimeoutSec)
	parseF("maxerror", &spec.MaxError)
	if q.Has("certbudget") {
		if v, perr := strconv.ParseInt(q.Get("certbudget"), 10, 64); perr == nil {
			spec.CertConflictBudget = v
		} else {
			err = fmt.Errorf("bad certbudget=%q", q.Get("certbudget"))
		}
	}
	if q.Has("windowed") {
		switch q.Get("windowed") {
		case "1", "true":
			spec.Windowed = true
		case "0", "false":
		default:
			err = fmt.Errorf("bad windowed=%q", q.Get("windowed"))
		}
	}
	return spec, err
}

func handleSubmit(m *Manager, w http.ResponseWriter, r *http.Request) {
	spec, err := specFromQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	// MaxBytesReader (not a bare LimitReader) also closes the connection on
	// overrun, so an unbounded upload cannot keep streaming into a rejected
	// request.
	r.Body = http.MaxBytesReader(w, r.Body, maxCircuitBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "too_large",
				"circuit body exceeds %d bytes", maxCircuitBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "bad_request", "reading body: %v", err)
		return
	}
	if len(body) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "empty body: POST the circuit (BLIF or AIGER) as the request body")
		return
	}
	st, err := m.Submit(spec, body)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			writeError(w, http.StatusServiceUnavailable, "queue_full", "%v", err)
		case errors.Is(err, ErrUnparsable):
			// 422: the request was well-formed HTTP, the entity is not a
			// usable circuit — oversized per the parser limits or malformed.
			code := "unparsable"
			if errors.Is(err, aiger.ErrTooLarge) || errors.Is(err, blif.ErrTooLarge) {
				code = "too_large"
			}
			writeError(w, http.StatusUnprocessableEntity, code, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func handleList(m *Manager, w http.ResponseWriter, _ *http.Request) {
	jobs := m.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status(false))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func handleStatus(m *Manager, w http.ResponseWriter, r *http.Request) {
	job, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no such job")
		return
	}
	withHistory := r.URL.Query().Get("history") != "0"
	writeJSON(w, http.StatusOK, job.Status(withHistory))
}

func handleCancel(m *Manager, w http.ResponseWriter, r *http.Request) {
	st, err := m.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams the job's progress as NDJSON: one JSON object per
// line, replaying the event log from ?from= (default 0) and then following
// live until the job reaches a terminal state or the client disconnects.
//
// Slow-consumer hardening: every write is preceded by a per-write deadline
// (via http.ResponseController, using the manager's injected clock) so a
// client that stops reading is disconnected after EventWriteTimeout rather
// than pinning this goroutine — and its event subscription — indefinitely.
// Event loss for such a client is already the contract: publishLocked drops
// events to full subscriber channels rather than wedging the publisher.
func handleEvents(m *Manager, opts HandlerOptions, w http.ResponseWriter, r *http.Request) {
	job, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no such job")
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			from = n
		}
	}
	replay, live, unsub := job.Subscribe(from)
	defer unsub()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	emit := func(ev Event) bool {
		if opts.EventWriteTimeout > 0 {
			// Best effort: a ResponseWriter without deadline support (plain
			// recorders) degrades to the legacy unbounded write.
			_ = rc.SetWriteDeadline(m.cfg.Now().Add(opts.EventWriteTimeout))
		}
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for _, ev := range replay {
		if !emit(ev) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-live:
			if !ok {
				return // terminal: the job closed the stream
			}
			if !emit(ev) {
				return
			}
		}
	}
}

func handleResult(m *Manager, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	aag, err := m.ResultAAG(id)
	if err != nil {
		switch {
		case errors.Is(err, ErrNotFound):
			writeError(w, http.StatusNotFound, "not_found", "no such job")
		case errors.Is(err, ErrNotDone):
			writeError(w, http.StatusConflict, "not_done", "job is not done")
		default:
			writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		}
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" || format == "aag" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(aag)
		return
	}
	g, err := ParseCircuit("aag", aag)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	switch format {
	case "aig":
		w.Header().Set("Content-Type", "application/octet-stream")
		err = aiger.Write(w, g, "aig")
	case "blif":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		err = blif.FromAIG(g).Write(w)
	case "v":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		err = verilog.Write(w, g)
	default:
		writeError(w, http.StatusBadRequest, "bad_request", "unknown format %q (aag, aig, blif, v)", format)
		return
	}
	if err != nil {
		m.logf("job %s: writing result: %v", id, err)
	}
}

func handleHealthz(m *Manager, w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":   true,
		"jobs": len(m.Jobs()),
	})
}
