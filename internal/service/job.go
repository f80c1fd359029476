package service

import (
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// State is a job's lifecycle state.
type State string

const (
	// StateQueued: accepted (or requeued after a failed attempt or a
	// restart) and waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker holds a lease on the job.
	StateRunning State = "running"
	// StateDone: the flow terminated (or hit its deadline with a usable
	// best-so-far result); the result circuit is available. A job never
	// fails outright: a failed attempt requeues it until quarantine.
	StateDone State = "done"
	// StateCancelled: terminated by DELETE /jobs/{id}.
	StateCancelled State = "cancelled"
	// StateQuarantined: the job's failure counter reached MaxFailures
	// (expired leases, reported failures and restarts that found it
	// unfinished, with no checkpoint upload in between). Terminal; the job
	// directory is preserved on disk for inspection.
	StateQuarantined State = "quarantined"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCancelled || s == StateQuarantined
}

// Event is one NDJSON progress record: a state transition, one session step,
// or an operational note (checkpoint fallback, quarantine, captured panic).
type Event struct {
	Job   string      `json:"job"`
	Seq   int         `json:"seq"`
	State State       `json:"state,omitempty"`
	Step  *core.Event `json:"step,omitempty"`
	// Message carries operational notes such as "checkpoint_fallback ...".
	Message string `json:"message,omitempty"`
	// Error carries failure detail — for a worker panic, the captured stack.
	Error string `json:"error,omitempty"`
}

// JobStatus is the externally visible snapshot of a job.
type JobStatus struct {
	ID           string            `json:"id"`
	Spec         JobSpec           `json:"spec"`
	State        State             `json:"state"`
	Error        string            `json:"error,omitempty"`
	TimedOut     bool              `json:"timed_out,omitempty"`
	Reason       string            `json:"reason,omitempty"`
	Attempts     int               `json:"attempts,omitempty"`
	Iterations   int               `json:"iterations"`
	Applied      int               `json:"applied"`
	Ands         int               `json:"ands"`
	CurrentError float64           `json:"current_error"`
	FinalError   float64           `json:"final_error,omitempty"`
	History      []core.IterRecord `json:"history,omitempty"`

	// Key is the job's content address (JobKey); CacheHit marks a job
	// answered from the store without computing.
	Key      string `json:"key"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	// Worker lists the workers holding a lease; Hedged marks a job that
	// ever ran a straggler duplicate; Redispatches counts requeues.
	Worker       string `json:"worker,omitempty"`
	Hedged       bool   `json:"hedged,omitempty"`
	Redispatches int    `json:"redispatches,omitempty"`
}

// attempt is one lease: a worker executing (or hedging) a job.
type attempt struct {
	id      string
	worker  string
	hedge   bool
	started time.Time
	expires time.Time
}

// Job is one synthesis job. Every mutable field is guarded by the owning
// Manager's lock; persistMu orders the job's state.json writes, which
// happen outside that lock.
type Job struct {
	ID   string
	Spec JobSpec

	m         *Manager
	persistMu sync.Mutex

	key          string
	state        State
	errMsg       string
	failures     int // the quarantine counter, shown as "attempts"
	cacheHit     bool
	hedged       bool
	redispatches int
	sum          ResultSummary
	curErr       float64
	history      []core.IterRecord

	active       []*attempt
	nextEligible time.Time

	events []Event
	subs   []chan Event
}

// Status returns a consistent snapshot. History is copied so callers can
// serialize it without holding the lock.
func (j *Job) Status(withHistory bool) JobStatus {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	return j.statusLocked(withHistory)
}

func (j *Job) statusLocked(withHistory bool) JobStatus {
	st := JobStatus{
		ID:           j.ID,
		Spec:         j.Spec,
		State:        j.state,
		Error:        j.errMsg,
		TimedOut:     j.sum.TimedOut,
		Reason:       j.sum.Reason,
		Attempts:     j.failures,
		Iterations:   j.sum.Iterations,
		Applied:      j.sum.Applied,
		Ands:         j.sum.Ands,
		CurrentError: j.curErr,
		FinalError:   j.sum.FinalError,
		Key:          j.key,
		CacheHit:     j.cacheHit,
		Hedged:       j.hedged,
		Redispatches: j.redispatches,
	}
	if withHistory {
		st.History = append([]core.IterRecord(nil), j.history...)
	}
	var owners []string
	for _, a := range j.active {
		owners = append(owners, a.worker)
	}
	st.Worker = strings.Join(owners, ",")
	return st
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	return j.state
}

// publishLocked appends an event to the log and fans it out to subscribers.
// Slow subscribers lose events rather than stalling the engine (their
// buffered channel fills); the NDJSON handler replays from the log by
// sequence number, so a lagging client can reconnect with ?from=.
func (j *Job) publishLocked(ev Event) {
	ev.Job = j.ID
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	if ev.State.Terminal() {
		for _, ch := range j.subs {
			close(ch)
		}
		j.subs = nil
	}
}

// Subscribe registers an event-stream client: it returns a replay of the
// event log from seq `from` onward, a channel for live events, and an
// unsubscribe function. On a terminal job the channel is already closed.
func (j *Job) Subscribe(from int) ([]Event, <-chan Event, func()) {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	from = max(0, min(from, len(j.events)))
	replay := append([]Event(nil), j.events[from:]...)
	ch := make(chan Event, 256)
	if j.state.Terminal() {
		close(ch)
		return replay, ch, func() {}
	}
	j.subs = append(j.subs, ch)
	unsub := func() {
		j.m.mu.Lock()
		defer j.m.mu.Unlock()
		for i, s := range j.subs {
			if s == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				close(ch)
				return
			}
		}
	}
	return replay, ch, unsub
}
