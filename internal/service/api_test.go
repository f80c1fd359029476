package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	. "repro/internal/service"
)

// startAPI brings up an engine plus its HTTP handler on an httptest server.
func startAPI(t *testing.T, cfg Config) (*httptest.Server, *Manager, func()) {
	t.Helper()
	m, stop := startManager(t, cfg)
	srv := httptest.NewServer(NewHandler(m))
	return srv, m, func() {
		srv.Close()
		stop()
	}
}

func postJob(t *testing.T, srv *httptest.Server, query string, circuit []byte) JobStatus {
	t.Helper()
	resp, err := http.Post(srv.URL+"/jobs?"+query, "application/octet-stream", bytes.NewReader(circuit))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("POST /jobs: decoding %q: %v", body, err)
	}
	return st
}

func getStatus(t *testing.T, srv *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(srv.URL + "/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: status %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("GET /jobs/%s: decode: %v", id, err)
	}
	return st
}

func waitStatusHTTP(t *testing.T, srv *httptest.Server, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, srv, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s in state %s (error %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAPISubmitPollResult drives the full happy path over HTTP: submit a
// circuit, poll status, fetch the result in every supported format.
func TestAPISubmitPollResult(t *testing.T) {
	srv, _, stop := startAPI(t, Config{Dir: t.TempDir(), Now: time.Now})
	defer stop()

	circuit := testCircuit(t)
	spec := testSpec()
	want, wantAAG := referenceRun(t, spec, circuit)

	st := postJob(t, srv,
		fmt.Sprintf("metric=er&threshold=%g&seed=%d&eval=%d&workers=1",
			spec.Threshold, spec.Seed, spec.EvalPatterns), circuit)
	if st.State != StateQueued {
		t.Fatalf("fresh job state %s", st.State)
	}
	final := waitStatusHTTP(t, srv, st.ID, StateDone)
	if final.FinalError != want.FinalError || final.Iterations != want.Iterations {
		t.Fatalf("HTTP result error %v / %d iterations, reference %v / %d",
			final.FinalError, final.Iterations, want.FinalError, want.Iterations)
	}
	if len(final.History) != want.Iterations {
		t.Fatalf("history over HTTP has %d records, want %d", len(final.History), want.Iterations)
	}

	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(got, wantAAG) {
		t.Fatal("result over HTTP differs from direct core.Run")
	}
	for _, format := range []string{"aig", "blif", "v"} {
		resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/result?format=" + format)
		if err != nil {
			t.Fatalf("GET result?format=%s: %v", format, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("result format %s: status %d, %d bytes", format, resp.StatusCode, len(body))
		}
	}
	resp, err = http.Get(srv.URL + "/jobs/" + st.ID + "/result?format=bogus")
	if err != nil {
		t.Fatalf("GET result?format=bogus: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus format: status %d, want 400", resp.StatusCode)
	}
}

// TestAPIEventStream consumes the NDJSON stream end to end: every line must
// decode, sequence numbers must be gap-free, and the stream must close on
// the terminal event.
func TestAPIEventStream(t *testing.T) {
	srv, _, stop := startAPI(t, Config{Dir: t.TempDir()})
	defer stop()

	st := postJob(t, srv, "metric=er&threshold=0.05&seed=3&eval=1024&workers=1", testCircuit(t))
	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	seq, steps, terminal := 0, 0, false
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Seq != seq {
			t.Fatalf("event seq %d, want %d", ev.Seq, seq)
		}
		seq++
		if ev.Step != nil {
			steps++
		}
		if ev.State.Terminal() {
			terminal = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if steps == 0 || !terminal {
		t.Fatalf("stream saw %d steps, terminal=%v", steps, terminal)
	}

	// Reconnect with ?from= mid-log: the replay must pick up exactly there.
	resp2, err := http.Get(fmt.Sprintf("%s/jobs/%s/events?from=%d", srv.URL, st.ID, seq-1))
	if err != nil {
		t.Fatalf("GET events?from: %v", err)
	}
	defer resp2.Body.Close()
	data, _ := io.ReadAll(resp2.Body)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1 {
		t.Fatalf("replay from %d returned %d events, want 1", seq-1, len(lines))
	}
	var last Event
	if err := json.Unmarshal([]byte(lines[0]), &last); err != nil {
		t.Fatalf("replay decode: %v", err)
	}
	if last.Seq != seq-1 {
		t.Fatalf("replay seq %d, want %d", last.Seq, seq-1)
	}
}

// TestAPICancel exercises DELETE /jobs/{id}.
func TestAPICancel(t *testing.T) {
	srv, _, stop := startAPI(t, Config{Dir: t.TempDir()})
	defer stop()
	st := postJob(t, srv, "metric=er&threshold=0.05&seed=3&eval=1024&workers=1", testCircuit(t))
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		s := getStatus(t, srv, st.ID)
		if s.State.Terminal() {
			if s.State != StateCancelled && s.State != StateDone {
				t.Fatalf("post-cancel state %s", s.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never terminated after cancel")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAPIListHealthzMetrics covers the remaining read endpoints.
func TestAPIListHealthzMetrics(t *testing.T) {
	srv, _, stop := startAPI(t, Config{Dir: t.TempDir(), Now: time.Now})
	defer stop()
	st := postJob(t, srv, "metric=er&threshold=0.05&seed=3&eval=1024&workers=1", testCircuit(t))
	waitStatusHTTP(t, srv, st.ID, StateDone)

	resp, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatalf("GET /jobs: %v", err)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("GET /jobs: err %v, jobs %+v", err, list.Jobs)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok": true`) {
		t.Fatalf("healthz: status %d body %s", resp.StatusCode, body)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"alsrac_jobs_submitted_total 1",
		`alsrac_jobs{state="done"} 1`,
		"# TYPE alsrac_step_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// apiError decodes the structured error body every failure path emits.
func apiError(t *testing.T, resp *http.Response) (msg, code string) {
	t.Helper()
	var body struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error body is not structured JSON: %v", err)
	}
	if body.Error == "" || body.Code == "" {
		t.Fatalf("error body missing fields: %+v", body)
	}
	return body.Error, body.Code
}

// TestAPIRobustnessOversizedAndUnparsable pins the hardened submission
// paths: a body over the HTTP cap is cut off by MaxBytesReader with 413; a
// well-sized body that is not a usable circuit — malformed, or demanding
// more nodes than the parser limits allow — is 422 with a structured
// {"error", "code"} body distinguishing the two.
func TestAPIRobustnessOversizedAndUnparsable(t *testing.T) {
	srv, _, stop := startAPI(t, Config{Dir: t.TempDir()})
	defer stop()

	resp, err := http.Post(srv.URL+"/jobs", "application/octet-stream",
		bytes.NewReader(make([]byte, 64<<20+1))) // one byte over the body cap
	if err != nil {
		t.Fatalf("POST oversized: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		resp.Body.Close()
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if _, code := apiError(t, resp); code != "too_large" {
		t.Fatalf("oversized body: code %q, want too_large", code)
	}
	resp.Body.Close()

	resp, err = http.Post(srv.URL+"/jobs", "application/octet-stream",
		strings.NewReader("this is not a circuit"))
	if err != nil {
		t.Fatalf("POST garbage: %v", err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		resp.Body.Close()
		t.Fatalf("garbage circuit: status %d, want 422", resp.StatusCode)
	}
	if _, code := apiError(t, resp); code != "unparsable" {
		t.Fatalf("garbage circuit: code %q, want unparsable", code)
	}
	resp.Body.Close()

	resp, err = http.Post(srv.URL+"/jobs", "application/octet-stream",
		strings.NewReader("aag 999999999 999999999 0 0 0\n"))
	if err != nil {
		t.Fatalf("POST over-limit header: %v", err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		resp.Body.Close()
		t.Fatalf("over-limit circuit: status %d, want 422", resp.StatusCode)
	}
	if _, code := apiError(t, resp); code != "too_large" {
		t.Fatalf("over-limit circuit: code %q, want too_large", code)
	}
	resp.Body.Close()
}

// TestAPIRejectsBadRequests pins the error paths: empty body, garbage
// params, unknown ids.
func TestAPIRejectsBadRequests(t *testing.T) {
	srv, _, stop := startAPI(t, Config{Dir: t.TempDir()})
	defer stop()

	resp, err := http.Post(srv.URL+"/jobs", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatalf("POST empty: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body: status %d", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/jobs?threshold=lots", "application/octet-stream",
		bytes.NewReader(testCircuit(t)))
	if err != nil {
		t.Fatalf("POST bad threshold: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad threshold: status %d", resp.StatusCode)
	}

	for _, path := range []string{"/jobs/j999999", "/jobs/j999999/result", "/jobs/j999999/events"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	st := postJob(t, srv, "metric=er&threshold=0.05&seed=3&eval=1024&workers=1", testCircuit(t))
	resp, err = http.Get(srv.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatalf("GET early result: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
		// 200 only if the job already finished; otherwise 409.
		t.Fatalf("early result: status %d", resp.StatusCode)
	}
}
