package forensics

// Live-feed tests: cursor math on the ring, backlog + live subscription
// semantics, drop-oldest backpressure, the zero-allocation no-subscriber
// hot path, SSE framing and Last-Event-ID resumption, and the -race hammer
// that pins the observation-only contract under concurrent polling.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventsSinceCursor(t *testing.T) {
	c, err := NewCollector(Options{Defense: "stub", Ring: 8})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		feedRound(c, r, 2, 1)
	}
	events, cursor := c.EventsSince(0)
	if cursor != 5 || len(events) != 5 {
		t.Fatalf("since 0: cursor %d with %d events, want 5/5", cursor, len(events))
	}
	for i, ev := range events {
		if ev.Cursor != uint64(i+1) {
			t.Fatalf("event %d carries cursor %d, want %d", i, ev.Cursor, i+1)
		}
		var audit jsonRoundAudit
		if err := json.Unmarshal(ev.Data, &audit); err != nil {
			t.Fatalf("event %d payload: %v", i, err)
		}
		if audit.Round != i {
			t.Fatalf("event %d is round %d, want %d", i, audit.Round, i)
		}
	}
	events, cursor = c.EventsSince(3)
	if cursor != 5 || len(events) != 2 || events[0].Cursor != 4 || events[1].Cursor != 5 {
		t.Fatalf("since 3: cursor %d, events %+v", cursor, events)
	}
	if events, _ := c.EventsSince(5); len(events) != 0 {
		t.Fatalf("since head: %d events, want none", len(events))
	}
}

// TestEventsSinceRingOverflow pins the derived-cursor arithmetic once the
// ring has wrapped: the oldest surviving entry's cursor is total − ring + 1,
// and a poller whose gap outran the ring simply gets the whole ring (the
// missed middle is gone, not misnumbered).
func TestEventsSinceRingOverflow(t *testing.T) {
	c, err := NewCollector(Options{Defense: "stub", Ring: 4})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 10; r++ {
		feedRound(c, r, 2, 1)
	}
	events, cursor := c.EventsSince(0)
	if cursor != 10 || len(events) != 4 {
		t.Fatalf("cursor %d with %d events, want 10/4", cursor, len(events))
	}
	for i, ev := range events {
		want := uint64(7 + i)
		if ev.Cursor != want {
			t.Fatalf("wrapped event %d carries cursor %d, want %d", i, ev.Cursor, want)
		}
		var audit jsonRoundAudit
		if err := json.Unmarshal(ev.Data, &audit); err != nil {
			t.Fatal(err)
		}
		if audit.Round != int(want)-1 {
			t.Fatalf("cursor %d maps to round %d, want %d", ev.Cursor, audit.Round, want-1)
		}
	}
}

func TestSubscribeBacklogAndLive(t *testing.T) {
	c, err := NewCollector(Options{Defense: "stub"})
	if err != nil {
		t.Fatal(err)
	}
	feedRound(c, 0, 2, 1)
	feedRound(c, 1, 2, 1)
	backlog, ch, cancel := c.Subscribe(0, 0)
	if len(backlog) != 2 || backlog[0].Cursor != 1 || backlog[1].Cursor != 2 {
		t.Fatalf("backlog %+v, want cursors 1,2", backlog)
	}
	if got := c.Subscribers(); got != 1 {
		t.Fatalf("subscribers = %d, want 1", got)
	}
	feedRound(c, 2, 2, 1)
	select {
	case ev := <-ch:
		if ev.Cursor != 3 {
			t.Fatalf("live event cursor %d, want 3", ev.Cursor)
		}
	case <-time.After(time.Second):
		t.Fatal("no live event delivered")
	}
	cancel()
	if got := c.Subscribers(); got != 0 {
		t.Fatalf("subscribers after cancel = %d, want 0", got)
	}
	if _, open := <-ch; open {
		t.Fatal("cancel should close the subscription channel")
	}
	cancel() // idempotent
}

// TestSubscriberDropOldest pins the backpressure contract: a stalled
// consumer's queue sheds its oldest events, keeps the newest, and the
// producer never blocks.
func TestSubscriberDropOldest(t *testing.T) {
	c, err := NewCollector(Options{Defense: "stub"})
	if err != nil {
		t.Fatal(err)
	}
	_, ch, cancel := c.Subscribe(0, 2)
	defer cancel()
	for r := 0; r < 5; r++ {
		feedRound(c, r, 2, 1)
	}
	// Queue depth 2 after 5 events: the two newest survive.
	want := []uint64{4, 5}
	for i, w := range want {
		select {
		case ev := <-ch:
			if ev.Cursor != w {
				t.Fatalf("queued event %d carries cursor %d, want %d", i, ev.Cursor, w)
			}
		default:
			t.Fatalf("queue holds fewer than %d events", len(want))
		}
	}
	select {
	case ev := <-ch:
		t.Fatalf("unexpected extra queued event with cursor %d", ev.Cursor)
	default:
	}
	c.mu.Lock()
	dropped := c.subs[0].dropped
	c.mu.Unlock()
	if dropped != 3 {
		t.Fatalf("dropped = %d, want 3", dropped)
	}
}

// TestBroadcastNoSubscribersZeroAlloc is the acceptance regression for the
// no-dashboard hot path: with nobody subscribed, the per-aggregation
// broadcast must not allocate (no marshal, no event construction).
func TestBroadcastNoSubscribersZeroAlloc(t *testing.T) {
	c, err := NewCollector(Options{Defense: "stub"})
	if err != nil {
		t.Fatal(err)
	}
	feedRound(c, 0, 3, 1)
	ra := c.Rounds()[0]
	allocs := testing.AllocsPerRun(200, func() {
		c.mu.Lock()
		c.broadcastLocked(ra)
		c.mu.Unlock()
	})
	if allocs != 0 {
		t.Fatalf("no-subscriber broadcast allocates %.1f objects per round, want 0", allocs)
	}
}

// readSSEEvent consumes one id/event/data frame from an SSE stream.
func readSSEEvent(t *testing.T, r *bufio.Reader) (id string, data string) {
	t.Helper()
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended mid-frame: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if data != "" {
				return id, data
			}
		case strings.HasPrefix(line, "id: "):
			id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, "event: "):
			if ev := strings.TrimPrefix(line, "event: "); ev != "round" {
				t.Fatalf("unexpected SSE event type %q", ev)
			}
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
}

func TestServeSSERoundTrip(t *testing.T) {
	c, err := NewCollector(Options{Defense: "stub"})
	if err != nil {
		t.Fatal(err)
	}
	feedRound(c, 0, 2, 1)
	srv := httptest.NewServer(mounted(c))
	defer srv.Close()

	req, err := http.NewRequest("GET", srv.URL+"/forensics/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control %q, want no-store", cc)
	}
	br := bufio.NewReader(resp.Body)
	id, data := readSSEEvent(t, br)
	if id != "1" {
		t.Fatalf("backlog event id %q, want 1", id)
	}
	var audit jsonRoundAudit
	if err := json.Unmarshal([]byte(data), &audit); err != nil {
		t.Fatalf("backlog payload: %v\n%s", err, data)
	}
	if audit.Round != 0 || len(audit.Records) != 3 {
		t.Fatalf("backlog audit = round %d with %d records", audit.Round, len(audit.Records))
	}

	// A live aggregation lands as the next frame.
	feedRound(c, 1, 2, 1)
	id, data = readSSEEvent(t, br)
	if id != "2" {
		t.Fatalf("live event id %q, want 2", id)
	}
	if err := json.Unmarshal([]byte(data), &audit); err != nil || audit.Round != 1 {
		t.Fatalf("live payload round %d (err %v)", audit.Round, err)
	}
}

// TestServeSSEResume pins Last-Event-ID semantics: a reconnecting client
// presenting the last cursor it saw receives only the newer backlog.
func TestServeSSEResume(t *testing.T) {
	c, err := NewCollector(Options{Defense: "stub"})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		feedRound(c, r, 2, 1)
	}
	srv := httptest.NewServer(mounted(c))
	defer srv.Close()
	req, err := http.NewRequest("GET", srv.URL+"/forensics/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if id, _ := readSSEEvent(t, br); id != "3" {
		t.Fatalf("resumed stream starts at id %q, want 3", id)
	}
	if id, _ := readSSEEvent(t, br); id != "4" {
		t.Fatalf("second resumed event id %q, want 4", id)
	}
}

// TestJSONEndpointsUncacheable is the header satellite: every forensics
// JSON response reports live state and must carry Cache-Control: no-store.
func TestJSONEndpointsUncacheable(t *testing.T) {
	c, err := NewCollector(Options{Defense: "stub"})
	if err != nil {
		t.Fatal(err)
	}
	feedRound(c, 0, 2, 1)
	srv := httptest.NewServer(mounted(c))
	defer srv.Close()
	for _, path := range []string{"/forensics/metrics", "/forensics/rounds", "/forensics/rounds?since=0"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Fatalf("%s: Cache-Control %q, want no-store", path, cc)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q, want application/json", path, ct)
		}
	}
}

func TestRoundsSinceEndpoint(t *testing.T) {
	c, err := NewCollector(Options{Defense: "stub"})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		feedRound(c, r, 2, 1)
	}
	srv := httptest.NewServer(mounted(c))
	defer srv.Close()
	var got struct {
		Cursor uint64 `json:"cursor"`
		Rounds []struct {
			Cursor uint64         `json:"cursor"`
			Audit  jsonRoundAudit `json:"audit"`
		} `json:"rounds"`
	}
	resp, err := http.Get(srv.URL + "/forensics/rounds?since=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Cursor != 3 || len(got.Rounds) != 2 {
		t.Fatalf("cursor %d with %d rounds, want 3/2", got.Cursor, len(got.Rounds))
	}
	if got.Rounds[0].Cursor != 2 || got.Rounds[0].Audit.Round != 1 {
		t.Fatalf("first incremental round = %+v", got.Rounds[0])
	}
	// Malformed cursors are a client error, not a panic.
	resp2, err := http.Get(srv.URL + "/forensics/rounds?since=nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor status %d, want 400", resp2.StatusCode)
	}
}

// TestStreamHammerObservationOnly is the -race satellite: N goroutines
// hammer the metrics endpoint, the incremental poll and the SSE stream —
// with connect/disconnect churn — while the engine streams aggregations.
// The hammered collector must end bit-identical to an unpolled twin fed the
// same fixed-seed stream, and no subscriber may leak once the pollers
// disconnect.
func TestStreamHammerObservationOnly(t *testing.T) {
	const rounds = 150
	hammered, err := NewCollector(Options{Defense: "stub", Seed: 42, Ring: 16})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewCollector(Options{Defense: "stub", Seed: 42, Ring: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mounted(hammered))
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() { // metrics scraper
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/forensics/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() { // incremental poller carrying its cursor forward
			defer wg.Done()
			var cursor uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(fmt.Sprintf("%s/forensics/rounds?since=%d", srv.URL, cursor))
				if err != nil {
					continue
				}
				var page struct {
					Cursor uint64 `json:"cursor"`
				}
				if json.NewDecoder(resp.Body).Decode(&page) == nil {
					cursor = page.Cursor
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { // SSE churn: connect, read a little, disconnect, repeat
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/forensics/stream")
				if err != nil {
					continue
				}
				io.CopyN(io.Discard, resp.Body, 256)
				resp.Body.Close()
			}
		}()
	}

	for r := 0; r < rounds; r++ {
		feedRound(hammered, r, 5, 2)
		feedRound(twin, r, 5, 2)
	}
	close(stop)
	wg.Wait()
	srv.Close() // drains in-flight handlers; SSE subscribers see the disconnect

	if a, b := hammered.Summary(), twin.Summary(); a != b {
		t.Fatalf("polling perturbed the detection summary:\n%+v\n%+v", a, b)
	}
	ra, rb := hammered.Rounds(), twin.Rounds()
	if len(ra) != len(rb) {
		t.Fatalf("ring lengths differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Metrics != rb[i].Metrics {
			t.Fatalf("ring entry %d differs: %+v vs %+v", i, ra[i].Metrics, rb[i].Metrics)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for hammered.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscriber leak: %d still attached after disconnect churn", hammered.Subscribers())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCollectorCloseEndsSubscriptions: Close must shut every live feed so
// attached SSE handlers return instead of blocking shutdown.
func TestCollectorCloseEndsSubscriptions(t *testing.T) {
	c, err := NewCollector(Options{Defense: "stub"})
	if err != nil {
		t.Fatal(err)
	}
	_, ch, cancel := c.Subscribe(0, 0)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, open := <-ch:
		if open {
			t.Fatal("Close delivered an event instead of closing the feed")
		}
	case <-time.After(time.Second):
		t.Fatal("subscription channel still open after Close")
	}
	cancel() // must stay safe after Close
	if got := c.Subscribers(); got != 0 {
		t.Fatalf("subscribers after Close = %d", got)
	}
}
