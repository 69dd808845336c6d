package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// ErrLeaseHeld reports that a journal (or a work-claiming lease inside one)
// is currently owned by another live owner. It is contention, not damage:
// callers distinguish it from corruption with errors.Is and retry with
// backoff instead of failing the sweep.
var ErrLeaseHeld = errors.New("persist: lease held by another owner")

// ErrLeaseLost reports that a lease this owner held was released or
// reclaimed by another owner (after the owner looked expired). The work is
// no longer exclusively ours; results must only be recorded through a
// presence-checked append so at most one copy lands.
var ErrLeaseLost = errors.New("persist: lease lost to another owner")

// SharedJournal is the keyed, multi-writer journal behind the run store:
// the journal format and crash tolerance of the stream, a last-wins view of
// every key in memory, and instead of one exclusive lock held from open to
// close, a short-lived advisory file lock per operation (shared for reads,
// exclusive for read-modify-append transactions). Any number of processes
// can therefore drain one store concurrently — the work-claiming substrate
// of every sweep.
//
// Consistency model: all mutations happen under the exclusive lock and
// start by replaying any lines other writers appended since this process
// last looked, so an Update transaction always sees the latest state —
// claims are linearizable. Plain Lookup reads the possibly stale local
// view; call Refresh to pull in other writers' appends.
type SharedJournal struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	entries map[string]json.RawMessage
	// off is the byte offset after the last intact line this process has
	// replayed; refreshes scan forward from it.
	off int64
}

// OpenShared opens (creating if needed) the journal at path for
// multi-process use and replays its current contents.
func OpenShared(path string) (*SharedJournal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open shared journal: %w", err)
	}
	s := &SharedJournal{path: path, f: f, entries: make(map[string]json.RawMessage)}
	if err := s.Refresh(); err != nil {
		_ = f.Close()
		return nil, err
	}
	return s, nil
}

// Refresh replays lines other writers appended since the last look, under a
// shared lock. A torn tail (a writer crashed mid-append) is left in place —
// only an exclusive-lock mutation may repair it — and simply not consumed.
func (s *SharedJournal) Refresh() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("persist: shared journal closed")
	}
	unlock, err := flockFile(s.f, s.path, false)
	if err != nil {
		return err
	}
	defer unlock()
	return s.replayLocked(false)
}

// replayLocked applies the lines appended since s.off to the view. An
// intact final entry that lost only its newline is applied at once; with
// repair set (exclusive lock held) it is terminated in place and a torn
// tail is truncated away, so the next append lands on a clean boundary.
// Without repair the tail is left for a writer and rescanned next time.
func (s *SharedJournal) replayLocked(repair bool) error {
	st, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("persist: shared journal stat: %w", err)
	}
	if st.Size() < s.off {
		// The file shrank under the view: intact lines are never rewritten,
		// so rebuild the view from scratch.
		s.off = 0
		s.entries = make(map[string]json.RawMessage)
	}
	if st.Size() == s.off {
		return nil
	}
	res, err := scanLines(io.NewSectionReader(s.f, s.off, st.Size()-s.off), s.off, func(e Entry) {
		s.entries[e.Key] = e.Payload
	})
	if err != nil {
		return fmt.Errorf("persist: shared journal %s: %w", s.path, err)
	}
	if !repair {
		s.off = res.end
		return nil
	}
	s.off, err = res.repair(s.f)
	return err
}

// Lookup returns the most recent payload recorded under key in this
// process's view (see Refresh for picking up other writers' appends).
func (s *SharedJournal) Lookup(key string, payload any) (bool, error) {
	s.mu.Lock()
	raw, ok := s.entries[key]
	s.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, payload); err != nil {
		return false, fmt.Errorf("persist: shared journal decode %q: %w", key, err)
	}
	return true, nil
}

// len reports the number of distinct keys in the current view.
func (s *SharedJournal) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Keys returns the distinct keys in the current view, in no particular order.
func (s *SharedJournal) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	return keys
}

// Tx is the view handed to an Update transaction: reads see the freshest
// state (the exclusive lock is held and the tail has been replayed), and
// appends are buffered until the transaction returns without error.
type Tx struct {
	s       *SharedJournal
	appends []journalLine
}

// Lookup returns the latest payload under key, including appends buffered
// earlier in the same transaction.
func (tx *Tx) Lookup(key string, payload any) (bool, error) {
	for i := len(tx.appends) - 1; i >= 0; i-- {
		if tx.appends[i].Key == key {
			if err := json.Unmarshal(tx.appends[i].Payload, payload); err != nil {
				return false, fmt.Errorf("persist: tx decode %q: %w", key, err)
			}
			return true, nil
		}
	}
	return tx.s.lookupLocked(key, payload)
}

func (s *SharedJournal) lookupLocked(key string, payload any) (bool, error) {
	raw, ok := s.entries[key]
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, payload); err != nil {
		return false, fmt.Errorf("persist: shared journal decode %q: %w", key, err)
	}
	return true, nil
}

// Append buffers one entry; it becomes durable iff the transaction commits.
func (tx *Tx) Append(key string, payload any) error {
	if key == "" {
		return errors.New("persist: journal key must not be empty")
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("persist: journal payload: %w", err)
	}
	tx.appends = append(tx.appends, journalLine{Key: key, Payload: raw})
	return nil
}

// Update runs fn as an atomic read-modify-append transaction: the exclusive
// file lock is taken, the tail replayed (repairing any torn append a
// crashed writer left), fn observes the latest state and buffers appends,
// and on success the appends are written and synced before the lock drops.
// Concurrent Updates from any number of processes are therefore
// linearizable — the basis of race-free work claiming.
func (s *SharedJournal) Update(fn func(tx *Tx) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("persist: shared journal closed")
	}
	unlock, err := flockFile(s.f, s.path, true)
	if err != nil {
		return err
	}
	defer unlock()
	if err := s.replayLocked(true); err != nil {
		return err
	}
	tx := &Tx{s: s}
	if err := fn(tx); err != nil {
		return err
	}
	if len(tx.appends) == 0 {
		return nil
	}
	var buf bytes.Buffer
	for _, jl := range tx.appends {
		line, err := json.Marshal(jl)
		if err != nil {
			return fmt.Errorf("persist: journal line: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if _, err := s.f.WriteAt(buf.Bytes(), s.off); err != nil {
		// Roll partial bytes back so a later append lands on a clean line
		// boundary; we hold the exclusive lock, so the truncate is safe.
		_ = s.f.Truncate(s.off)
		return fmt.Errorf("persist: shared journal write: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		_ = s.f.Truncate(s.off)
		return fmt.Errorf("persist: shared journal sync: %w", err)
	}
	s.off += int64(buf.Len())
	for _, jl := range tx.appends {
		s.entries[jl.Key] = jl.Payload
	}
	return nil
}

// append durably records payload under key (a single-entry Update).
func (s *SharedJournal) append(key string, payload any) error {
	return s.Update(func(tx *Tx) error { return tx.Append(key, payload) })
}

// Close releases the underlying file. No lock is held between operations,
// so Close never blocks on other processes.
func (s *SharedJournal) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
