package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// maxSpans bounds the spans one traced run keeps for the trace file; later
// spans are counted but dropped, so a long run cannot grow it without limit.
// Per-layer metrics never depend on the kept set: they are aggregated from
// each operation's own spans before those are handed over.
const maxSpans = 400000

// span is one timed interval at a layer boundary. Spans of one operation (a
// flow run or a job) share Req; ID is unique within Req and Parent is the ID
// of the span that caused this one (0 for a root).
type span struct {
	Name   string
	Req    string
	ID     int
	Parent int
	Lane   int
	Start  time.Time
	End    time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer collects spans in memory and writes them as Chrome trace-event
// JSON (opens in Perfetto and chrome://tracing) when the run ends.
type tracer struct {
	origin time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) add(spans ...span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		if len(t.spans) >= maxSpans {
			t.dropped++
			continue
		}
		t.spans = append(t.spans, s)
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of that interval its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	type key struct {
		req string
		id  int
	}
	children := map[key][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			k := key{s.Req, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[key{s.Req, s.ID}])
	}
	return out
}

// covered returns how much of parent's interval the union of the children's
// intervals covers. Children are clipped to the parent; overlapping children
// (parallel work) are counted once.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Time }
	var ivs []iv
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(parent.End) {
			hi = parent.End
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	total := time.Duration(0)
	var end time.Time
	for _, v := range ivs {
		if v.lo.Before(end) {
			v.lo = end
		}
		if v.hi.After(v.lo) {
			total += v.hi.Sub(v.lo)
			end = v.hi
		}
	}
	return total
}

// durations returns the summed duration of the spans per name.
func durations(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur()
	}
	return out
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as a Chrome trace-event JSON file stamped with the
// run header.
func (t *tracer) write(path string, hdr header) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	defer f.Close()
	events := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, traceEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Sub(t.origin)) / float64(time.Microsecond),
			Dur:  float64(s.dur()) / float64(time.Microsecond),
			Args: map[string]any{"req": s.Req, "id": s.ID, "parent": s.Parent},
		})
	}
	w := bufio.NewWriter(f)
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"header": hdr, "dropped_spans": t.dropped},
	}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// layerOf maps a span name such as "opt.flush" to its layer ("opt").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
