package forensics

// Live-feed tests: cursor math on the ring, the one /rounds read and its
// exactly-once contract for a cursor-carrying poller, and the -race hammer
// that pins the observation-only contract under concurrent polling.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// roundsPage is the body of GET <prefix>/rounds.
type roundsPage struct {
	Cursor uint64 `json:"cursor"`
	Rounds []struct {
		Cursor uint64     `json:"cursor"`
		Audit  RoundAudit `json:"audit"`
	} `json:"rounds"`
}

// getRounds fetches and decodes one /rounds page.
func getRounds(url string) (roundsPage, error) {
	var page roundsPage
	resp, err := http.Get(url)
	if err != nil {
		return page, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return page, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return page, json.NewDecoder(resp.Body).Decode(&page)
}

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
		var audit RoundAudit
		if err := json.Unmarshal(ev.Audit, &audit); err != nil {
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
		var audit RoundAudit
		if err := json.Unmarshal(ev.Audit, &audit); err != nil {
			t.Fatal(err)
		}
		if audit.Round != int(want)-1 {
			t.Fatalf("cursor %d maps to round %d, want %d", ev.Cursor, audit.Round, want-1)
		}
	}
}

// TestPollReadsEveryCursorOnce pins the live feed's contract: a poller
// that carries its cursor forward, running beside a writer, reads every
// aggregation exactly once and in order — no gap and no duplicate however
// its polls interleave with the writes — while the ring covers the run.
func TestPollReadsEveryCursorOnce(t *testing.T) {
	const rounds = 200
	c, err := NewCollector(Options{Defense: "stub", Ring: rounds})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mounted(c))
	defer srv.Close()

	// The writer waits for a finished poll after every tenth aggregation,
	// so polls land between and during writes throughout the run.
	wrote, polled := make(chan struct{}), make(chan struct{}, 1)
	go func() {
		defer close(wrote)
		for r := 0; r < rounds; r++ {
			if r%10 == 0 {
				<-polled
			}
			feedRound(c, r, 2, 1)
		}
	}()
	var seen []uint64
	var cursor uint64
	for done := false; !done; {
		select {
		case <-wrote:
			done = true // one more poll after the last write
		default:
		}
		page, err := getRounds(fmt.Sprintf("%s/forensics/rounds?since=%d", srv.URL, cursor))
		if err != nil {
			t.Fatal(err)
		}
		select {
		case polled <- struct{}{}:
		default:
		}
		for _, it := range page.Rounds {
			if it.Audit.Round != int(it.Cursor)-1 {
				t.Fatalf("cursor %d carries round %d, want %d", it.Cursor, it.Audit.Round, it.Cursor-1)
			}
			seen = append(seen, it.Cursor)
		}
		cursor = page.Cursor
	}
	if len(seen) != rounds {
		t.Fatalf("poller read %d audits, want %d", len(seen), rounds)
	}
	for i, cur := range seen {
		if cur != uint64(i+1) {
			t.Fatalf("read %d is cursor %d, want %d (a gap or a duplicate)", i, cur, i+1)
		}
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
	got, err := getRounds(srv.URL + "/forensics/rounds?since=1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Cursor != 3 || len(got.Rounds) != 2 {
		t.Fatalf("cursor %d with %d rounds, want 3/2", got.Cursor, len(got.Rounds))
	}
	if got.Rounds[0].Cursor != 2 || got.Rounds[0].Audit.Round != 1 {
		t.Fatalf("first incremental round = %+v", got.Rounds[0])
	}
	// A poller at the head gets an empty list, not null: the page iterates it.
	resp, err := http.Get(srv.URL + "/forensics/rounds?since=3")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "{\"cursor\":3,\"rounds\":[]}\n" {
		t.Fatalf("poll at the head = %s", body)
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
// hammer the metrics endpoint and the incremental poll while the engine
// streams aggregations. The hammered collector must end bit-identical to an
// unpolled twin fed the same fixed-seed stream.
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
	for r := 0; r < rounds; r++ {
		feedRound(hammered, r, 5, 2)
		feedRound(twin, r, 5, 2)
	}
	close(stop)
	wg.Wait()
	srv.Close()

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
}
