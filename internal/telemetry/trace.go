package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/persist"
)

// Tracer collects spans into a bounded in-memory buffer for export after
// the run: Chrome trace-event JSON (chrome://tracing, Perfetto) and the
// repro's JSONL journal format (persist.OpenJournalStream). Emission is a
// mutex-guarded append of one small struct — safe from concurrent
// federations and lease workers — and the buffer never grows past its
// bound: excess spans are counted in Dropped rather than silently eating
// memory on a long host. A nil *Tracer no-ops everywhere.
type Tracer struct {
	mu      sync.Mutex
	tracks  []string
	events  []event
	max     int
	dropped int64
}

// event is one completed span: ts/dur are monotonic nanoseconds since
// process start (see Nanos).
type event struct {
	name    string
	track   int32
	ts, dur int64
}

// NewTracer returns a tracer bounded to max buffered spans (0 = 1<<20).
func NewTracer(max int) *Tracer {
	if max <= 0 {
		max = 1 << 20
	}
	return &Tracer{max: max}
}

// Track interns a named track (one row in the trace viewer — a federation,
// a sweep worker, the defense layer) and returns its handle. Interning is
// cold-path; spans carry only the int32. A nil tracer returns 0.
func (t *Tracer) Track(name string) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, n := range t.tracks {
		if n == name {
			return int32(i)
		}
	}
	t.tracks = append(t.tracks, name)
	return int32(len(t.tracks) - 1)
}

// Start opens a span on track. The returned Span is a value — ending it
// allocates nothing beyond the tracer's own buffer append — and a span
// started on a nil tracer is inert.
func (t *Tracer) Start(track int32, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{tracer: t, name: name, track: track, start: Nanos()}
}

// Emit records a completed span whose begin and end were observed in
// different stack frames (start in monotonic nanoseconds, see Nanos).
func (t *Tracer) Emit(track int32, name string, start, dur int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.events) >= t.max {
		t.dropped++
	} else {
		t.events = append(t.events, event{name: name, track: track, ts: start, dur: dur})
	}
	t.mu.Unlock()
}

// snapshot copies the buffered state for export.
func (t *Tracer) snapshot() ([]string, []event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.tracks...), append([]event(nil), t.events...)
}

// Span is one in-flight measurement. It is a plain value: copying it is
// cheap, the zero value is inert, and End on the zero value no-ops — the
// disabled-telemetry hot path costs one nil check and no allocation.
type Span struct {
	tracer *Tracer
	hist   *Histogram
	name   string
	track  int32
	start  int64
}

// End closes the span, feeding its duration to the attached histogram
// and/or trace buffer.
func (s Span) End() {
	if s.tracer == nil && s.hist == nil {
		return
	}
	dur := Nanos() - s.start
	s.hist.ObserveNanos(dur)
	if s.tracer != nil {
		s.tracer.Emit(s.track, s.name, s.start, dur)
	}
}

// chromeEvent is one Chrome trace-event object: "X" complete events carry
// microsecond ts/dur; "M" metadata events name the pid/tid rows.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int32          `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome renders the buffered spans as a Chrome trace-event JSON
// array, loadable in chrome://tracing and Perfetto. Tracks become threads
// of one process; timestamps are microseconds since process start.
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		return nil
	}
	tracks, events := t.snapshot()
	out := make([]chromeEvent, 0, len(events)+len(tracks)+1)
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "repro"},
	})
	for i, name := range tracks {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: int32(i),
			Args: map[string]any{"name": name},
		})
	}
	for _, ev := range events {
		out = append(out, chromeEvent{
			Name: ev.name, Ph: "X", PID: 1, TID: ev.track,
			TS: float64(ev.ts) / 1e3, Dur: float64(ev.dur) / 1e3,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// journalSpan is the JSONL trace-journal line payload.
type journalSpan struct {
	Track   string `json:"track"`
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"`
	DurNs   int64  `json:"durNs"`
}

// WriteJournal appends the buffered spans to a JSONL trace journal at path
// via persist's journal stream (O(1) memory, one fsync at close).
// Keys are span.<seq>, in emission order.
func (t *Tracer) WriteJournal(path string) error {
	if t == nil {
		return nil
	}
	tracks, events := t.snapshot()
	j, err := persist.OpenJournalStream(path)
	if err != nil {
		return fmt.Errorf("telemetry: trace journal: %w", err)
	}
	for i, ev := range events {
		track := ""
		if int(ev.track) < len(tracks) {
			track = tracks[ev.track]
		}
		if err := j.Append(fmt.Sprintf("span.%08d", i), journalSpan{
			Track: track, Name: ev.name, StartNs: ev.ts, DurNs: ev.dur,
		}); err != nil {
			_ = j.Close()
			return fmt.Errorf("telemetry: trace journal: %w", err)
		}
	}
	if err := j.Close(); err != nil {
		return fmt.Errorf("telemetry: trace journal: %w", err)
	}
	return nil
}
