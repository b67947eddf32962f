package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the public API it calls. Spans of one round share Round; Parent is the
// index of the enclosing span, -1 at the top.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
	// N is the work the call did, in the unit the span name implies
	// (events, bytes); 0 when the span counts nothing.
	N int64 `json:"n,omitempty"`
}

// Tracer keeps spans in memory until the run ends. A nil Tracer records
// nothing, so untraced runs pay one nil check per call.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
	// profile, when set, has the workload's timed phase profiled: profs
	// holds a CPU profile per stretch of it (see startTimed).
	profile bool
	profs   []*bytes.Buffer
}

// NewTracer starts an empty span store.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its index; -1 on a nil Tracer.
func (t *Tracer) Begin(name string, parent, round int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: now, Parent: parent, Round: round})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// End closes span id, recording n units of work.
func (t *Tracer) End(id int, n int64) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].N = n
	t.mu.Unlock()
}

// Record adds a span measured elsewhere (hot loops time themselves and
// report once per batch).
func (t *Tracer) Record(name string, start time.Time, d time.Duration, round int, n int64) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: s, End: s + int64(d), Parent: -1, Round: round, N: n})
	t.mu.Unlock()
}

// spanStats summarizes the spans of one name.
type spanStats struct {
	count   int
	total   time.Duration
	medianD time.Duration
}

// Summary groups the spans by name, leaving out the set-up's (round 0).
func (t *Tracer) Summary() map[string]spanStats {
	out := map[string]spanStats{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	durs := map[string][]float64{}
	for _, s := range t.spans {
		if s.Round == 0 {
			continue
		}
		st := out[s.Name]
		st.count++
		st.total += time.Duration(s.End - s.Start)
		out[s.Name] = st
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
	}
	for name, d := range durs {
		st := out[name]
		st.medianD = time.Duration(median(d))
		out[name] = st
	}
	return out
}

// WriteFile writes every span as JSON in recording order, so Parent
// indices stay valid.
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
