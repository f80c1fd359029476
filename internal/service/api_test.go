package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/aig"
	"repro/internal/aiger"
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

// TestAPIRefusesWhatAlsracRefuses posts what the alsrac command refuses: a
// circuit whose outputs the metric or certified mode cannot score, and
// out-of-range parameters. Each is a 400 naming the limit or the
// parameter, and no job is listed or stored.
func TestAPIRefusesWhatAlsracRefuses(t *testing.T) {
	dir := t.TempDir()
	srv, _, stop := startAPI(t, Config{Dir: dir})
	defer stop()

	encode := func(g *aig.Graph) []byte {
		var buf bytes.Buffer
		if err := aiger.Write(&buf, g, "aag"); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	wide := aig.New()
	a, b := wide.AddPI("a"), wide.AddPI("b")
	for o := 0; o < 65; o++ {
		wide.AddPO(wide.And(a, b.NotCond(o%2 == 1)), "")
	}
	none := aig.New()
	none.AddPIs(2, "x")
	cla := testCircuit(t)
	for _, c := range []struct {
		query   string
		circuit []byte
		want    string
	}{
		{"metric=nmed", encode(wide), "65 outputs; NMED supports at most 64"},
		{"metric=mred", encode(wide), "65 outputs; MRED supports at most 64"},
		{"metric=maxerr&threshold=0.05", encode(wide), "65 outputs; NMED supports at most 64"},
		{"metric=er&maxerror=0.01", encode(wide), "65 outputs; certified mode supports at most 64"},
		{"metric=er&maxerror=0.01", encode(none), "0 outputs; certified mode needs at least one"},
		{"r=1.5", cla, "scale (r)"},
		{"n=-5", cla, "initial_rounds (n)"},
		{"l=-5", cla, "max_lacs_per_node (l)"},
		{"t=-5", cla, "patience (t)"},
		{"maxstall=-5", cla, "max_stall (maxstall)"},
		{"maxdepth=-1", cla, "max_depth_ratio (maxdepth)"},
		{"certbudget=-3", cla, "cert_conflict_budget (certbudget)"},
		{"eval=10", cla, "eval_patterns (eval)"},
	} {
		resp, err := http.Post(srv.URL+"/jobs?"+c.query, "application/octet-stream", bytes.NewReader(c.circuit))
		if err != nil {
			t.Fatalf("POST %s: %v", c.query, err)
		}
		msg, code := apiError(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || code != "bad_request" || !strings.Contains(msg, c.want) {
			t.Errorf("POST %s: status %d, code %q, error %q; want 400 bad_request naming %q",
				c.query, resp.StatusCode, code, msg, c.want)
		}
	}

	resp, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatalf("GET /jobs: %v", err)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("GET /jobs: %v", err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 0 {
		t.Errorf("GET /jobs lists %d jobs after refused submissions", len(list.Jobs))
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "jobs")); len(entries) != 0 {
		t.Errorf("refused submissions left job directories %v (%v)", entries, err)
	}
}

// refuseThenAccept posts each query with a valid circuit and requires a 400
// bad_request naming want; then no job directory may exist, and the next
// accepted submission must get the first job id: a refusal allocates none.
func refuseThenAccept(t *testing.T, rows []struct{ query, want string }) {
	t.Helper()
	dir := t.TempDir()
	srv, _, stop := startAPI(t, Config{Dir: dir})
	defer stop()
	cla := testCircuit(t)
	for _, c := range rows {
		resp, err := http.Post(srv.URL+"/jobs?"+c.query, "application/octet-stream", bytes.NewReader(cla))
		if err != nil {
			t.Fatalf("POST %s: %v", c.query, err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Errorf("POST %s: status %d (%s); want 400 naming %q", c.query, resp.StatusCode, body, c.want)
			continue
		}
		msg, code := apiError(t, resp)
		resp.Body.Close()
		if code != "bad_request" || !strings.Contains(msg, c.want) {
			t.Errorf("POST %s: code %q, error %q; want bad_request naming %q", c.query, code, msg, c.want)
		}
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "jobs")); len(entries) != 0 {
		t.Errorf("refused submissions left job directories %v (%v)", entries, err)
	}
	if st := postJob(t, srv, "metric=er&threshold=0.05&seed=3&eval=1024&workers=1", cla); st.ID != "j000001" {
		t.Errorf("first accepted job is %s, want j000001", st.ID)
	}
}

// TestAPIRefusesNonFiniteFloats requires POST /jobs to refuse a non-finite
// value of every float parameter, naming the field and the parameter,
// before a job id is allocated: such a spec cannot be persisted.
func TestAPIRefusesNonFiniteFloats(t *testing.T) {
	refuseThenAccept(t, []struct{ query, want string }{
		{"threshold=Inf", "threshold (threshold) must be finite"},
		{"maxerror=Inf", "max_error (maxerror) must be finite"},
		{"r=Inf", "scale (r)"},
		{"maxdepth=Inf", "max_depth_ratio (maxdepth) must be finite"},
		{"timeout=Inf", "timeout_sec (timeout) must be finite"},
		{"timeout=-Inf", "timeout_sec (timeout) must be finite"},
		{"timeout=NaN", "timeout_sec (timeout) must be finite"},
	})
}

// TestAPIRefusesUnknownParameters requires POST /jobs to refuse a query
// parameter it does not read, naming it, as alsrac refuses an unknown
// flag: a misspelt knob must not silently run at its default.
func TestAPIRefusesUnknownParameters(t *testing.T) {
	refuseThenAccept(t, []struct{ query, want string }{
		{"metric=er&thresold=0.5", `unknown parameter "thresold"`},
		{"metric=er&threshold=0.05&window_max_inputs=4", `unknown parameter "window_max_inputs"`},
		{"Threshold=0.05&zz=1", `unknown parameter "Threshold", "zz"`},
	})
}
