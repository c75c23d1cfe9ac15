package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"omegago"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call.
type span struct {
	ID, Parent int64
	Req        string // shared by every span of one service request
	Layer      string // "bench" spans are the benchmark's own frames
	Name       string
	Start, End time.Time
	Wait       bool // time spent waiting for another layer, not working
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	mu    sync.Mutex
	next  int64
	spans []span
	tr    *omegago.Tracer // exporter; its epoch is the recorder's start
}

func newRecorder() *recorder { return &recorder{tr: omegago.NewTracer()} }

// add stores a finished span and returns its id (0 on a nil recorder).
func (r *recorder) add(s span) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	s.ID = r.next
	r.spans = append(r.spans, s)
	return s.ID
}

// reserve hands out an id for a span whose end is not known yet, so
// children can name it as their parent; finish stores it.
func (r *recorder) reserve() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

func (r *recorder) finish(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// phaseObserver turns the scan's Phase events (Config.Observer) into
// spans under one entry-point call. LD and ω phases become the "ld"
// and "omega" layers; scheduler frames (shard summaries, snapshot
// copies) and the scanner's own chunk-arrival events are left out —
// chunk reads are timed by the ChunkSource wrapper instead.
type phaseObserver struct {
	rec    *recorder
	parent int64
}

func (o phaseObserver) OnProgress(omegago.Progress) {}

func (o phaseObserver) OnPhase(p omegago.Phase) {
	var layer string
	switch p.Name {
	case omegago.PhaseLD:
		layer = "ld"
	case omegago.PhaseOmega:
		layer = "omega"
	default:
		return
	}
	o.rec.add(span{Parent: o.parent, Layer: layer, Name: p.Name, Start: p.Start, End: p.Start.Add(p.Duration)})
}

// observer returns the Config.Observer for one traced entry-point call,
// or nil when the run is untraced.
func (r *recorder) observer(parent int64) omegago.Observer {
	if r == nil {
		return nil
	}
	return phaseObserver{rec: r, parent: parent}
}

type interval struct{ a, b time.Time }

// unionLen returns the length of the union of the intervals, clipped to
// [lo, hi].
func unionLen(iv []interval, lo, hi time.Time) time.Duration {
	var clipped []interval
	for _, x := range iv {
		if x.a.Before(lo) {
			x.a = lo
		}
		if x.b.After(hi) {
			x.b = hi
		}
		if x.b.After(x.a) {
			clipped = append(clipped, x)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].a.Before(clipped[j].a) })
	var total time.Duration
	var cur interval
	for i, x := range clipped {
		if i == 0 || x.a.After(cur.b) {
			total += cur.b.Sub(cur.a)
			cur = x
			continue
		}
		if x.b.After(cur.b) {
			cur.b = x.b
		}
	}
	return total + cur.b.Sub(cur.a)
}

// layerStat is the per-layer summary of a traced run.
type layerStat struct {
	Count               int
	Busy, Self, WaitDur time.Duration
}

// summarize folds spans into per-layer busy, self and wait time. Self
// time is a span's duration minus the part of it its children cover.
func summarize(spans []span) map[string]*layerStat {
	children := map[int64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := map[string]*layerStat{}
	for _, s := range spans {
		st := out[s.Layer]
		if st == nil {
			st = &layerStat{}
			out[s.Layer] = st
		}
		st.Count++
		if s.Wait {
			st.WaitDur += s.dur()
			continue
		}
		st.Busy += s.dur()
		st.Self += s.dur() - unionLen(children[s.ID], s.Start, s.End)
	}
	return out
}

// coverage is the share of the windows' total length that layer spans
// — every span except the benchmark's own frames — explain.
func coverage(spans []span, windows []interval) float64 {
	var iv []interval
	for _, s := range spans {
		if s.Layer != "bench" {
			iv = append(iv, interval{s.Start, s.End})
		}
	}
	var covered, total time.Duration
	for _, w := range windows {
		covered += unionLen(iv, w.a, w.b)
		total += w.b.Sub(w.a)
	}
	return ratio(covered.Seconds(), total.Seconds())
}

// writeLayerTable prints the per-layer busy/self/wait table.
func writeLayerTable(w io.Writer, stats map[string]*layerStat) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %-8s %8s %10s %10s %10s\n", "layer", "spans", "busy_s", "self_s", "wait_s")
	for _, n := range names {
		st := stats[n]
		fmt.Fprintf(w, "# %-8s %8d %10.4f %10.4f %10.4f\n", n, st.Count,
			st.Busy.Seconds(), st.Self.Seconds(), st.WaitDur.Seconds())
	}
}

// exportChrome writes the spans in the Chrome trace-event format the
// program's own tracer emits, one lane per layer, with id, parent and
// request id in each event's args.
func (r *recorder) exportChrome(path string) error {
	lanes := map[string]int{}
	tr := r.tr
	for _, s := range r.all() {
		lane, ok := lanes[s.Layer]
		if !ok {
			lane = len(lanes) + 1
			lanes[s.Layer] = lane
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Req != "" {
			args["req"] = s.Req
		}
		if s.Wait {
			args["wait"] = true
		}
		tr.OnPhase(omegago.Phase{
			Name: s.Layer + "." + s.Name, Track: lane,
			Start: s.Start, Duration: s.dur(), Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.ExportChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
