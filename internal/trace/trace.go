// Package trace records hierarchical timing spans of a run and exports
// them in the Chrome trace-event JSON format, so a scan's phase
// structure (load → LD/DP → ω → output) can be inspected in
// about:tracing or Perfetto. This is the runtime observability layer of
// cmd/omegago's -trace flag.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"omegago/internal/obs"
)

// Span is one completed region of work.
type Span struct {
	Name     string
	Start    time.Time
	Duration time.Duration
	// Track is the logical thread lane the span renders on in the trace
	// viewer (Chrome "tid"). Zero means the default lane. Concurrent
	// workers — e.g. the shards of omega.ScanShardedCtx — should use
	// distinct tracks so their LD/ω overlap is visible in Perfetto.
	Track int
	// Args carries free-form metadata shown in the trace viewer.
	Args map[string]any
}

// Tracer collects spans. The zero value is unusable; NewTracer sets the
// epoch. A nil *Tracer is a valid no-op receiver, so call sites need no
// conditionals.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewTracer starts a tracer whose timestamps are relative to now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// Region runs fn inside a named span. No-op on a nil tracer.
func (t *Tracer) Region(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	done := t.Begin(name)
	fn()
	done(nil)
}

// Begin opens a span on the default track; the returned func closes it,
// optionally attaching metadata. No-op on a nil tracer.
func (t *Tracer) Begin(name string) func(args map[string]any) {
	return t.BeginOn(0, name)
}

// BeginOn opens a span on an explicit track (Chrome "tid" lane). Spans
// from concurrent workers should use distinct tracks so they render as
// parallel lanes instead of overlapping on one. No-op on a nil tracer.
func (t *Tracer) BeginOn(track int, name string) func(args map[string]any) {
	if t == nil {
		return func(map[string]any) {}
	}
	start := time.Now()
	return func(args map[string]any) {
		t.mu.Lock()
		t.spans = append(t.spans, Span{
			Name: name, Start: start, Duration: time.Since(start), Track: track, Args: args,
		})
		t.mu.Unlock()
	}
}

// OnPhase implements obs.Observer: every Phase event a scan emits
// becomes a span, so passing a Tracer as the scan's Observer records
// the per-region LD/ω stages (and, with the sharded scheduler, the
// per-shard lanes) without any engine knowing about tracing. This is
// how the pre-obs Tracer hook is absorbed into the Observer surface.
func (t *Tracer) OnPhase(p obs.Phase) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{
		Name: p.Name, Start: p.Start, Duration: p.Duration, Track: p.Track, Args: p.Args,
	})
	t.mu.Unlock()
}

// OnProgress implements obs.Observer; a Tracer records phases only.
func (t *Tracer) OnProgress(obs.Progress) {}

var _ obs.Observer = (*Tracer)(nil)

// Spans returns the completed spans in completion order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// chromeEvent is one entry of the trace-event format ("X" = complete
// event with explicit duration).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds since epoch
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ExportChromeJSON writes the spans as a Chrome trace-event array,
// loadable in about:tracing / Perfetto.
func (t *Tracer) ExportChromeJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("trace: nil tracer")
	}
	t.mu.Lock()
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		tid := s.Track
		if tid == 0 {
			tid = 1
		}
		events[i] = chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start.Sub(t.epoch).Microseconds()),
			Dur:  float64(s.Duration.Microseconds()),
			Pid:  1,
			Tid:  tid,
			Args: s.Args,
		}
	}
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// Summary renders a plain-text table of span durations, longest first
// within insertion order preserved (no sort: phase order is meaningful).
func (t *Tracer) Summary() string {
	spans := t.Spans()
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	total := time.Duration(0)
	for _, s := range spans {
		total += s.Duration
	}
	out := ""
	for _, s := range spans {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(s.Duration) / float64(total)
		}
		out += fmt.Sprintf("%-24s %12s  %5.1f%%\n", s.Name, s.Duration.Round(time.Microsecond), pct)
	}
	return out
}
