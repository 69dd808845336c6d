package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, as seen from the harness. Parent is
// the id of the span that caused it (0 = none); spans of one cell share
// Cell, spans of one round share Round.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Cell     string `json:"cell"`
	Round    int    `json:"round"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so traced and untraced passes share one code path.
type tracer struct {
	workload string
	origin   time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// add records a finished span and returns its id.
func (t *tracer) add(parent int, layer, name, cell string, round int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Layer: layer, Name: name, Workload: t.workload, Cell: cell, Round: round,
		StartNs: start.Sub(t.origin).Nanoseconds(), EndNs: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// open reserves a span whose end is not yet known, so children can name it
// as their parent; close fills in the end.
func (t *tracer) open(parent int, layer, name, cell string, round int) int {
	now := time.Now()
	return t.add(parent, layer, name, cell, round, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = end
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(parent int, layer, name, cell string, round int, fn func(id int)) time.Duration {
	start := time.Now()
	id := t.open(parent, layer, name, cell, round)
	fn(id)
	t.close(id)
	return time.Since(start)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (500 clients train at once), so the covered part is the union of their
// intervals clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// layerSelfSeconds sums self time by layer.
func layerSelfSeconds(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for id, ns := range selfTimes(spans) {
		out[spans[id-1].Layer] += float64(ns) / 1e9
	}
	return out
}

func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
