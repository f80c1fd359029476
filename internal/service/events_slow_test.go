package service_test

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	. "repro/internal/service"
)

// stalledWriter models a peer that never drains its receive buffer, the way
// a real conn behaves under http.ResponseController: a Write blocks until
// the handler arms a write deadline, then fails with a deadline error. If
// the handler never sets a deadline — the regression this test pins — the
// write blocks forever and the test times out.
type stalledWriter struct {
	once     sync.Once
	deadline chan struct{}

	mu           sync.Mutex
	deadlineSets int
}

func newStalledWriter() *stalledWriter {
	return &stalledWriter{deadline: make(chan struct{})}
}

func (w *stalledWriter) Header() http.Header { return http.Header{} }
func (w *stalledWriter) WriteHeader(int)     {}

func (w *stalledWriter) Write(p []byte) (int, error) {
	<-w.deadline
	return 0, os.ErrDeadlineExceeded
}

func (w *stalledWriter) SetWriteDeadline(t time.Time) error {
	w.mu.Lock()
	w.deadlineSets++
	w.mu.Unlock()
	w.once.Do(func() { close(w.deadline) })
	return nil
}

// TestEventsSlowConsumerDisconnected pins the write-deadline contract of
// GET /jobs/{id}/events: a subscriber that stops reading is disconnected by
// the per-write deadline instead of pinning the handler goroutine and its
// subscription forever.
func TestEventsSlowConsumerDisconnected(t *testing.T) {
	// No Run(): the job stays queued, so its subscription stays live and the
	// replay of the queued-transition event is what hits the stalled write.
	m, err := New(Config{Dir: t.TempDir(), Now: time.Now})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st, err := m.Submit(testSpec(), testCircuit(t))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	w := newStalledWriter()
	r := httptest.NewRequest("GET", "/jobs/"+st.ID+"/events", nil)
	h := NewHandlerOpts(m, HandlerOptions{EventWriteTimeout: 50 * time.Millisecond})

	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(w, r)
	}()

	// Wait for the handler's subscription, then publish the event whose
	// write the stalled consumer will never drain.
	job, _ := m.Get(st.ID)
	for deadline := time.Now().Add(5 * time.Second); ; {
		if job.Subscribers() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("handler still blocked on a consumer that never reads: write deadline not armed")
	}

	w.mu.Lock()
	sets := w.deadlineSets
	w.mu.Unlock()
	if sets == 0 {
		t.Fatalf("handler returned without arming a write deadline")
	}

	// The deferred unsub ran: the job carries no dangling subscription that
	// would make every future publish scan a dead channel.
	if subs := job.Subscribers(); subs != 0 {
		t.Fatalf("%d subscription(s) leaked after disconnect", subs)
	}
}

// TestEventsNeverReadingClientNoLeak runs the end-to-end variant over a real
// server: a client connects to the event stream, never reads a byte, and the
// job must still run to completion with every handler goroutine reclaimed
// after the server shuts down.
func TestEventsNeverReadingClientNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	m, stop := startManager(t, Config{Dir: t.TempDir()})
	srv := httptest.NewServer(NewHandlerOpts(m, HandlerOptions{EventWriteTimeout: 100 * time.Millisecond}))

	st := postJob(t, srv, "metric=er&threshold=0.05&seed=3&eval=1024", testCircuit(t))

	// A raw connection that sends the request and then goes silent: no reads,
	// no close, until the test tears it down.
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET /jobs/%s/events HTTP/1.1\r\nHost: x\r\n\r\n", st.ID); err != nil {
		t.Fatalf("write request: %v", err)
	}

	// The stalled subscriber must not wedge the job.
	waitState(t, m, st.ID, StateDone)

	srv.Close()
	stop() // asserts goroutine count returned to base
	waitGoroutines(t, base)
}
