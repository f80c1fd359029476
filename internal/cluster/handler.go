// Package cluster is the HTTP wire of the alsracd job engine
// (internal/service): the /cluster/* routes a remote worker talks to, and
// an HTTP implementation of service.Transport so remote workers run the
// same loop as the engine's in-process ones. Everything else — the job
// table, leases, hedging, quarantine and the content-addressed store —
// lives in the engine. Determinism is what makes the split work: the flow
// is bitwise-deterministic in (circuit, normalized spec), so a job may die
// on one machine and finish on another, resumed from its last uploaded
// checkpoint, and still produce the byte-identical result.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/service"
)

// Wire types of the worker-facing routes. Circuit, checkpoint and result
// bodies are raw bytes:
//
//	POST /cluster/register                  RegisterRequest  -> service.RegisterResponse
//	POST /cluster/claim                     ClaimRequest     -> service.ClaimResponse | 204 | 410
//	GET  /cluster/jobs/{id}/circuit                          -> circuit bytes
//	GET  /cluster/jobs/{id}/checkpoint                       -> checkpoint bytes | 404
//	POST /cluster/jobs/{id}/renew           AttemptRequest   -> 204 | 409
//	PUT  /cluster/jobs/{id}/checkpoint?worker=&attempt=      -> 204 | 409 (body: checkpoint)
//	PUT  /cluster/jobs/{id}/result?worker=&attempt=&summary= -> 204 | 409 (body: result AAG)
//	POST /cluster/jobs/{id}/fail            FailRequest      -> 204
//
// A 409 means the lease is lost (service.ErrLeaseLost): the worker must
// abandon its session at once — the cross-machine form of ctx
// cancellation.

// RegisterRequest announces a worker.
type RegisterRequest struct {
	Name string `json:"name,omitempty"`
}

// ClaimRequest asks for work.
type ClaimRequest struct {
	WorkerID string `json:"worker_id"`
}

// AttemptRequest identifies a worker's attempt for renew.
type AttemptRequest struct {
	WorkerID  string `json:"worker_id"`
	AttemptID string `json:"attempt_id"`
}

// FailRequest reports an attempt failure the worker itself detected; Stack
// is set for a recovered panic. Network-dead workers never send it — their
// lease simply expires.
type FailRequest struct {
	WorkerID  string `json:"worker_id"`
	AttemptID string `json:"attempt_id"`
	Error     string `json:"error"`
	Stack     string `json:"stack,omitempty"`
}

// maxBodyBytes bounds every request body the wire reads. A torn upload
// (Content-Length larger than what arrived) is rejected before it can reach
// the store.
const maxBodyBytes = 64 << 20

// CoordConfig configures NewCoordinator. It stays for the benchmark until
// its next revision; new code configures the engine with service.Config.
type CoordConfig struct {
	Dir          string
	Now          func() time.Time
	PollInterval time.Duration
}

// NewCoordinator builds an engine with no in-process workers, serving
// remote ones only. It stays for the benchmark until its next revision;
// new code calls service.New.
func NewCoordinator(cfg CoordConfig) (*service.Manager, error) {
	return service.New(service.Config{Dir: cfg.Dir, Now: cfg.Now, PollInterval: cfg.PollInterval})
}

// NewHandler serves the engine's client API (service.NewHandler) plus the
// worker routes above.
func NewHandler(m *service.Manager) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandler(m))
	lease := func(r *http.Request, workerID, attemptID string) service.Lease {
		return service.Lease{JobID: r.PathValue("id"), WorkerID: workerID, AttemptID: attemptID}
	}
	mux.HandleFunc("POST /cluster/register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if readJSON(w, r, &req) {
			resp, err := m.Register(r.Context(), req.Name)
			reply(w, http.StatusOK, resp, err)
		}
	})
	mux.HandleFunc("POST /cluster/claim", func(w http.ResponseWriter, r *http.Request) {
		var req ClaimRequest
		if !readJSON(w, r, &req) {
			return
		}
		resp, ok, err := m.Claim(r.Context(), req.WorkerID)
		if err == nil && !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		reply(w, http.StatusOK, resp, err)
	})
	mux.HandleFunc("GET /cluster/jobs/{id}/circuit", func(w http.ResponseWriter, r *http.Request) {
		data, err := m.Circuit(r.Context(), r.PathValue("id"))
		replyBytes(w, data, err)
	})
	mux.HandleFunc("GET /cluster/jobs/{id}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		payload, ok, err := m.Checkpoint(r.Context(), r.PathValue("id"))
		if err == nil && !ok {
			writeError(w, http.StatusNotFound, "no_checkpoint", "no usable checkpoint")
			return
		}
		replyBytes(w, payload, err)
	})
	mux.HandleFunc("POST /cluster/jobs/{id}/renew", func(w http.ResponseWriter, r *http.Request) {
		var req AttemptRequest
		if readJSON(w, r, &req) {
			reply(w, http.StatusNoContent, nil, m.Renew(r.Context(), lease(r, req.WorkerID, req.AttemptID)))
		}
	})
	mux.HandleFunc("PUT /cluster/jobs/{id}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		payload, ok := readBody(w, r)
		if ok {
			q := r.URL.Query()
			reply(w, http.StatusNoContent, nil, m.UploadCheckpoint(r.Context(), lease(r, q.Get("worker"), q.Get("attempt")), payload))
		}
	})
	mux.HandleFunc("PUT /cluster/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		aag, ok := readBody(w, r)
		if !ok {
			return
		}
		q := r.URL.Query()
		var sum service.ResultSummary
		if err := json.Unmarshal([]byte(q.Get("summary")), &sum); err != nil {
			writeError(w, http.StatusBadRequest, "bad_summary", "decoding summary: %v", err)
			return
		}
		reply(w, http.StatusNoContent, nil, m.UploadResult(r.Context(), lease(r, q.Get("worker"), q.Get("attempt")), sum, aag))
	})
	mux.HandleFunc("POST /cluster/jobs/{id}/fail", func(w http.ResponseWriter, r *http.Request) {
		var req FailRequest
		if readJSON(w, r, &req) {
			reply(w, http.StatusNoContent, nil, m.Fail(r.Context(), lease(r, req.WorkerID, req.AttemptID), req.Error, req.Stack))
		}
	})
	return mux
}

// readBody drains the request body under maxBodyBytes, enforcing
// Content-Length when present: a body shorter than declared (a torn upload
// through a dying proxy) is rejected so partial bytes never reach the store.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_body", "reading body: %v", err)
		return nil, false
	}
	if len(data) > maxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "too_large", "body exceeds %d bytes", maxBodyBytes)
		return nil, false
	}
	if cl := r.Header.Get("Content-Length"); cl != "" {
		if want, perr := strconv.ParseInt(cl, 10, 64); perr == nil && int64(len(data)) != want {
			writeError(w, http.StatusBadRequest, "torn_body", "body truncated: got %d of %d bytes", len(data), want)
			return nil, false
		}
	}
	return data, true
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	data, ok := readBody(w, r)
	if !ok {
		return false
	}
	if err := json.Unmarshal(data, v); err != nil {
		writeError(w, http.StatusBadRequest, "bad_json", "decoding request: %v", err)
		return false
	}
	return true
}

// reply writes v with status code, or maps err onto its HTTP status. 409 is
// the load-bearing one: it is how lease loss crosses the wire.
func reply(w http.ResponseWriter, code int, v any, err error) {
	switch {
	case err == nil && v == nil:
		w.WriteHeader(code)
	case err == nil:
		writeJSON(w, code, v)
	case errors.Is(err, service.ErrNotFound):
		writeError(w, http.StatusNotFound, "not_found", "%v", err)
	case errors.Is(err, service.ErrLeaseLost):
		writeError(w, http.StatusConflict, "lease_lost", "%v", err)
	case errors.Is(err, service.ErrUnknownWorker):
		writeError(w, http.StatusGone, "unknown_worker", "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
	}
}

func replyBytes(w http.ResponseWriter, data []byte, err error) {
	if err != nil {
		reply(w, 0, nil, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, map[string]string{
		"error": fmt.Sprintf(format, args...),
		"code":  code,
	})
}
