package forensics

import (
	"encoding/json"
	"sync"
)

// DefaultStreamBuffer is the per-subscriber queue depth when Subscribe is
// given no explicit bound. At one audit per aggregation a browser that
// stalls for 64 rounds starts losing the oldest events, never round N's
// aggregation itself.
const DefaultStreamBuffer = 64

// StreamEvent is one live-feed item: the audit's ring cursor (total
// aggregations observed when it landed, so cursors are dense and strictly
// increasing) and its encoded jsonRoundAudit bytes. The byte slice is
// marshaled once per aggregation and shared read-only by every subscriber.
type StreamEvent struct {
	Cursor uint64
	Data   []byte
}

// subscriber is one live-feed consumer: a bounded queue the broadcast side
// never blocks on, plus a drop counter for the events the queue shed.
type subscriber struct {
	ch      chan StreamEvent
	dropped int
	once    sync.Once
}

// shut closes the queue exactly once, whichever of cancel and Collector
// shutdown gets there first.
func (s *subscriber) shut() { s.once.Do(func() { close(s.ch) }) }

// Subscribe attaches a live-feed consumer. It returns the backlog — every
// ring entry with cursor > since, oldest first, so a reconnecting client
// resumes without a gap as long as the outage fits in the ring — a channel
// delivering each subsequent aggregation, and a cancel function that
// detaches the subscriber and closes the channel. buf bounds the queue
// (<= 0 selects DefaultStreamBuffer); when it fills, the oldest queued
// event is dropped in favor of the new one, so a slow consumer sees the
// freshest rounds and the engine never waits.
func (c *Collector) Subscribe(since uint64, buf int) ([]StreamEvent, <-chan StreamEvent, func()) {
	if buf <= 0 {
		buf = DefaultStreamBuffer
	}
	sub := &subscriber{ch: make(chan StreamEvent, buf)}
	c.mu.Lock()
	backlog := c.backlogLocked(since)
	c.subs = append(c.subs, sub)
	c.mu.Unlock()
	cancel := func() {
		c.mu.Lock()
		for i, s := range c.subs {
			if s == sub {
				c.subs = append(c.subs[:i], c.subs[i+1:]...)
				break
			}
		}
		c.mu.Unlock()
		// Safe to close outside the lock: broadcasts only send under the
		// lock, and the subscriber is no longer reachable from c.subs.
		sub.shut()
	}
	return backlog, sub.ch, cancel
}

// Subscribers reports the attached live-feed consumers — the leak check
// tests run after disconnect churn.
//
//lint:allow deadexport the subscriber-leak check of the forensics and flnet tests
func (c *Collector) Subscribers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.subs)
}

// EventsSince returns the ring entries with cursor > since (oldest first)
// and the current head cursor: the incremental poll behind
// GET /rounds?since=. A poller that carries the returned cursor forward
// fetches each audit exactly once while the ring covers its polling gap.
func (c *Collector) EventsSince(since uint64) ([]StreamEvent, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.backlogLocked(since), uint64(c.aggs)
}

// backlogLocked marshals the ring entries newer than since, oldest first.
// Cursors are derived, not stored: the ring holds the last len(ring) of
// c.aggs total audits, so oldest-first entry i carries cursor
// aggs − len(ring) + i + 1.
func (c *Collector) backlogLocked(since uint64) []StreamEvent {
	total := uint64(c.aggs)
	n := uint64(len(c.ring))
	var out []StreamEvent
	emit := func(i int, ra RoundAudit) {
		cur := total - n + uint64(i) + 1
		if cur <= since {
			return
		}
		data, err := json.Marshal(auditToJSON(ra))
		if err != nil {
			return
		}
		out = append(out, StreamEvent{Cursor: cur, Data: data})
	}
	if len(c.ring) < c.opts.Ring {
		for i, ra := range c.ring {
			emit(i, ra)
		}
		return out
	}
	i := 0
	for _, ra := range c.ring[c.next:] {
		emit(i, ra)
		i++
	}
	for _, ra := range c.ring[:c.next] {
		emit(i, ra)
		i++
	}
	return out
}

// broadcastLocked fans one freshly observed audit out to every subscriber.
// Called by ObserveAggregation with c.mu held, immediately after the ring
// insert, so the event cursor is exactly c.aggs. With no subscribers it
// returns before touching the audit — the no-dashboard hot path must stay
// allocation-free (regression-tested by TestBroadcastNoSubscribersZeroAlloc).
func (c *Collector) broadcastLocked(ra RoundAudit) {
	if len(c.subs) == 0 {
		return
	}
	data, err := json.Marshal(auditToJSON(ra))
	if err != nil {
		return
	}
	ev := StreamEvent{Cursor: uint64(c.aggs), Data: data}
	for _, sub := range c.subs {
		select {
		case sub.ch <- ev:
			continue
		default:
		}
		// Queue full: shed the oldest queued event, keep the newest — a
		// stalled browser loses history it can refetch via ?since, and the
		// engine never blocks here.
		select {
		case <-sub.ch:
			sub.dropped++
		default:
		}
		select {
		case sub.ch <- ev:
		default:
			sub.dropped++
		}
	}
}

// closeStreamLocked detaches every subscriber; callers close the returned
// subscribers' channels after releasing c.mu.
func (c *Collector) closeStreamLocked() []*subscriber {
	subs := c.subs
	c.subs = nil
	return subs
}
