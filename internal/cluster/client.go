package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/service"
)

// WorkerConfig configures a remote worker.
type WorkerConfig struct {
	// Join is the engine's base URL (e.g. "http://host:8337").
	Join string
	// Name labels the worker in the engine's logs.
	Name string
	// Client issues the worker's HTTP requests; tests route it through a
	// faultfs.NetInjector. Nil means http.DefaultClient.
	Client *http.Client
	// Now supplies wall-clock time (injected — determinism rule). Required.
	Now func() time.Time
	// PollInterval overrides the engine-advertised idle-claim cadence.
	PollInterval time.Duration
	// CheckpointEvery uploads a checkpoint every N steps (default 25).
	// Smaller values shrink the recompute window after a kill at the cost
	// of upload traffic.
	CheckpointEvery int
	// Logf receives operational log lines; nil silences them.
	Logf func(format string, args ...any)
}

// Worker runs service.RunWorker against a remote engine over HTTP.
type Worker struct {
	cfg WorkerConfig
	c   *client
}

// NewWorker validates cfg and prepares a worker (Run does the registering).
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Join == "" {
		return nil, errors.New("cluster: WorkerConfig.Join is required")
	}
	if cfg.Now == nil {
		return nil, errors.New("cluster: WorkerConfig.Now is required")
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 25
	}
	return &Worker{cfg: cfg, c: &client{base: cfg.Join, http: cfg.Client, poll: cfg.PollInterval, logf: cfg.Logf}}, nil
}

// Run registers with the engine and executes claimed jobs until ctx is
// cancelled. Transient unavailability is retried under capped backoff; Run
// returns ctx.Err().
func (wk *Worker) Run(ctx context.Context) error {
	return service.RunWorker(ctx, wk.c, wk.cfg.Name, wk.cfg.Now, wk.cfg.CheckpointEvery, wk.cfg.Logf)
}

// client is service.Transport over the /cluster/* routes. Network errors
// are retried under capped backoff; HTTP statuses never are — the lease
// protocol gives every status a meaning.
type client struct {
	base string
	http *http.Client
	poll time.Duration
	logf func(format string, args ...any)
}

var _ service.Transport = (*client)(nil)

// httpRetries bounds the tries of one call on network errors. Every call is
// safe to repeat: a duplicated claim leaves an extra lease that simply
// expires, and uploads are idempotent by content.
const httpRetries = 4

// sleepCtx is a timer raced against ctx.
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

// do sends one request (retrying network errors) and returns the status and
// body of the response.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var status int
	var data []byte
	var err error
	for attempt := 1; ; attempt++ {
		status, data, err = c.once(ctx, method, path, body)
		if err == nil || ctx.Err() != nil || attempt >= httpRetries {
			return status, data, err
		}
		if serr := sleepCtx(ctx, service.Backoff("http"+path, attempt, 50*time.Millisecond, 2*time.Second)); serr != nil {
			return status, data, err
		}
	}
}

func (c *client) once(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.ContentLength = int64(len(body))
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// call sends a JSON request and maps the response status: 2xx decodes into
// out (when given), 409 is service.ErrLeaseLost, 410 service.ErrUnknownWorker.
func (c *client) call(ctx context.Context, method, path string, in, out any) (int, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return 0, fmt.Errorf("cluster: encoding request: %w", err)
		}
	}
	status, data, err := c.do(ctx, method, path, body)
	if err != nil {
		return status, err
	}
	switch {
	case status == http.StatusConflict:
		return status, service.ErrLeaseLost
	case status == http.StatusGone:
		return status, service.ErrUnknownWorker
	case status >= 300 && status != http.StatusNotFound:
		return status, fmt.Errorf("cluster: %s %s returned %d: %s", method, path, status, strings.TrimSpace(string(data)))
	case out == nil:
		return status, nil
	case status == http.StatusOK:
		if raw, ok := out.(*[]byte); ok {
			*raw = data
			return status, nil
		}
		if err := json.Unmarshal(data, out); err != nil {
			return status, fmt.Errorf("cluster: decoding response: %w", err)
		}
	}
	return status, nil
}

// Register joins the engine, retrying under backoff until ctx ends.
func (c *client) Register(ctx context.Context, name string) (service.RegisterResponse, error) {
	for attempt := 1; ; attempt++ {
		var resp service.RegisterResponse
		_, err := c.call(ctx, http.MethodPost, "/cluster/register", RegisterRequest{Name: name}, &resp)
		if err == nil {
			if c.poll > 0 {
				resp.PollMillis = c.poll.Milliseconds()
			}
			return resp, nil
		}
		if c.logf != nil {
			c.logf("worker: register failed (%v), retrying", err)
		}
		if serr := sleepCtx(ctx, service.Backoff("register", attempt, 100*time.Millisecond, 5*time.Second)); serr != nil {
			return resp, serr
		}
	}
}

func (c *client) Claim(ctx context.Context, workerID string) (service.ClaimResponse, bool, error) {
	var resp service.ClaimResponse
	status, err := c.call(ctx, http.MethodPost, "/cluster/claim", ClaimRequest{WorkerID: workerID}, &resp)
	return resp, err == nil && status == http.StatusOK, err
}

func (c *client) Circuit(ctx context.Context, jobID string) ([]byte, error) {
	var data []byte
	status, err := c.call(ctx, http.MethodGet, "/cluster/jobs/"+jobID+"/circuit", nil, &data)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("cluster: circuit of %s: status %d", jobID, status)
	}
	return data, err
}

func (c *client) Checkpoint(ctx context.Context, jobID string) ([]byte, bool, error) {
	var data []byte
	status, err := c.call(ctx, http.MethodGet, "/cluster/jobs/"+jobID+"/checkpoint", nil, &data)
	return data, err == nil && status == http.StatusOK, err
}

func (c *client) Renew(ctx context.Context, l service.Lease) error {
	_, err := c.call(ctx, http.MethodPost, "/cluster/jobs/"+l.JobID+"/renew",
		AttemptRequest{WorkerID: l.WorkerID, AttemptID: l.AttemptID}, nil)
	return err
}

func (c *client) put(ctx context.Context, l service.Lease, what, query string, body []byte) error {
	path := "/cluster/jobs/" + l.JobID + "/" + what + "?worker=" + url.QueryEscape(l.WorkerID) +
		"&attempt=" + url.QueryEscape(l.AttemptID) + query
	status, data, err := c.do(ctx, http.MethodPut, path, body)
	switch {
	case err != nil:
		return err
	case status == http.StatusConflict:
		return service.ErrLeaseLost
	case status >= 300:
		return fmt.Errorf("cluster: %s upload returned %d: %s", what, status, strings.TrimSpace(string(data)))
	}
	return nil
}

func (c *client) UploadCheckpoint(ctx context.Context, l service.Lease, payload []byte) error {
	return c.put(ctx, l, "checkpoint", "", payload)
}

func (c *client) UploadResult(ctx context.Context, l service.Lease, sum service.ResultSummary, aag []byte) error {
	sj, err := json.Marshal(sum)
	if err != nil {
		return fmt.Errorf("cluster: encoding summary: %w", err)
	}
	return c.put(ctx, l, "result", "&summary="+url.QueryEscape(string(sj)), aag)
}

func (c *client) Fail(ctx context.Context, l service.Lease, msg, stack string) error {
	_, err := c.call(ctx, http.MethodPost, "/cluster/jobs/"+l.JobID+"/fail",
		FailRequest{WorkerID: l.WorkerID, AttemptID: l.AttemptID, Error: msg, Stack: stack}, nil)
	return err
}

// Report sends nothing: cross-machine step timelines are not on the wire.
func (c *client) Report(context.Context, service.Lease, service.StepReport) error { return nil }

func (c *client) Wait(ctx context.Context, d time.Duration) error { return sleepCtx(ctx, d) }
