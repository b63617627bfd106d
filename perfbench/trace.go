package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded from the benchmark's
// own code around the public function it calls. Spans of one cell (or
// one experiment) share Group; Parent is the ID of the enclosing span
// (0 for a root). Aggregated children — the per-request cdn resolves
// and per-session QoE observations of one Group.Run — are not stored as
// spans: their summed time and count ride on the parent span as Child.
type span struct {
	ID, Parent int
	Name       string
	Group      int // cell index or experiment index, -1 for none
	Worker     int // track: scheduler worker or report lane
	Start, End time.Duration
	Child      []aggChild
	Args       map[string]float64
}

// aggChild is a child layer whose calls are too many to store one by one.
type aggChild struct {
	Name  string
	Calls int64
	Dur   time.Duration
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// childDur sums the aggregated children's time.
func (s *span) childDur() time.Duration {
	var d time.Duration
	for _, c := range s.Child {
		d += c.Dur
	}
	return d
}

// tracer keeps spans in memory; they are written out once the run ends.
// Safe for concurrent use by the scheduler's workers.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
	next  int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// now is the tracer clock: monotonic time since the tracer started.
func (t *tracer) now() time.Duration { return time.Since(t.base) }

// add records a finished span under a fresh ID.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.next++
	s.ID = t.next
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reserve hands out an ID for a span whose children finish before it
// does; record it later with put.
func (t *tracer) reserve() int {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return id
}

// put records a span under an ID from reserve.
func (t *tracer) put(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes returns each span name's total self time: its duration
// minus the part its child spans and aggregated children cover.
// Children run strictly inside their parent, so the covered part is the
// plain sum of their durations. A span whose children run on several
// lanes at once (Args "lanes") offers lanes × duration, and its self
// time is the lane time its children left idle.
func selfTimes(spans []span) map[string]time.Duration {
	childSum := make(map[int]time.Duration, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			childSum[p] += spans[i].dur()
		}
	}
	self := make(map[string]time.Duration)
	for i := range spans {
		s := &spans[i]
		offered := s.dur()
		if l := s.Args["lanes"]; l > 1 {
			offered = time.Duration(l * float64(offered))
		}
		self[s.Name] += offered - childSum[s.ID] - s.childDur()
		for _, c := range s.Child {
			self[c.Name] += c.Dur
		}
	}
	return self
}

// traceEvent is one Chrome trace-event ("ph":"X" complete event).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open directly. Every event carries its
// span ID, its parent's ID and its group (cell or experiment) in args.
func writeChromeTrace(path string, spans []span, groupKey string) error {
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].ID < sorted[j].ID
	})
	events := make([]traceEvent, 0, len(sorted))
	for _, s := range sorted {
		args := map[string]any{"span": s.ID, "parent": s.Parent}
		if s.Group >= 0 {
			args[groupKey] = s.Group
		}
		for _, c := range s.Child {
			args[c.Name+".calls"] = c.Calls
			args[c.Name+".us"] = float64(c.Dur) / 1e3
		}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, traceEvent{
			Name: s.Name,
			Cat:  layerOf(s.Name),
			Ph:   "X",
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.dur()) / 1e3,
			Pid:  1,
			Tid:  s.Worker,
			Args: args,
		})
	}
	b, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerOf is the package prefix of a span name ("cdn.warm" → "cdn").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
