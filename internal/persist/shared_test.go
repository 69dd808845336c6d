package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

type sharedPayload struct {
	N int `json:"n"`
}

// TestSharedJournalBasic checks append/lookup/refresh across two
// independently opened handles on one file — the in-process model of two
// worker processes (each handle owns its own file description, so the
// advisory locks exclude them like separate processes).
func TestSharedJournalBasic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.jsonl")
	a, err := OpenShared(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenShared(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.append("k1", sharedPayload{N: 1}); err != nil {
		t.Fatal(err)
	}
	var got sharedPayload
	if ok, _ := b.Lookup("k1", &got); ok {
		t.Fatal("b sees k1 before Refresh")
	}
	if err := b.Refresh(); err != nil {
		t.Fatal(err)
	}
	if ok, err := b.Lookup("k1", &got); err != nil || !ok || got.N != 1 {
		t.Fatalf("b after refresh: ok=%v err=%v got=%+v", ok, err, got)
	}
	// Later lines win, across handles.
	if err := b.append("k1", sharedPayload{N: 2}); err != nil {
		t.Fatal(err)
	}
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := a.Lookup("k1", &got); !ok || got.N != 2 {
		t.Fatalf("a after b's overwrite: got=%+v", got)
	}
}

// TestSharedJournalConcurrentAppends hammers one file from many goroutines
// across two handles and checks no line is lost or torn.
func TestSharedJournalConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.jsonl")
	handles := make([]*SharedJournal, 2)
	for i := range handles {
		h, err := OpenShared(path)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		handles[i] = h
	}
	const perWriter = 50
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := handles[w%2]
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d.%d", w, i)
				if err := h.append(key, sharedPayload{N: i}); err != nil {
					t.Errorf("append %s: %v", key, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// A read-only scan must see every line, each exactly once.
	for _, h := range handles {
		h.Close()
	}
	entries, err := ReadEntries(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4*perWriter {
		t.Fatalf("lines lost: %d of %d", len(entries), 4*perWriter)
	}
}

// TestSharedJournalTornTailRepair verifies a crashed writer's torn tail is
// skipped by readers and repaired by the next exclusive mutation.
func TestSharedJournalTornTailRepair(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.jsonl")
	s, err := OpenShared(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.append("good", sharedPayload{N: 7}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn","pay`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenShared(path)
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	defer s2.Close()
	var got sharedPayload
	if ok, _ := s2.Lookup("good", &got); !ok || got.N != 7 {
		t.Fatalf("intact line lost behind tear: %+v", got)
	}
	if ok, _ := s2.Lookup("torn", &got); ok {
		t.Fatal("torn line surfaced")
	}
	// The next mutation repairs the tear and lands cleanly after it.
	if err := s2.append("after", sharedPayload{N: 8}); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadEntries(path)
	if err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	if len(entries) != 2 || entries[1].Key != "after" || string(entries[1].Payload) != `{"n":8}` {
		t.Fatalf("want good then after, got %+v", entries)
	}
}

// TestLeaseClaimReleaseSteal exercises the full lease protocol between two
// owners: exclusive claim, contention, renewal visibility, release, and
// observation-based reclaim of a stale epoch.
func TestLeaseClaimReleaseSteal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.jsonl")
	a, err := OpenShared(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenShared(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	la, err := a.TryClaim("cell", "alice", 0)
	if err != nil {
		t.Fatalf("initial claim: %v", err)
	}
	if la.Epoch != 1 || !la.Held {
		t.Fatalf("unexpected lease %+v", la)
	}
	// Contention: bob is refused and told the holder's state.
	lb, err := b.TryClaim("cell", "bob", 0)
	if !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("want ErrLeaseHeld, got %v", err)
	}
	if lb.Owner != "alice" || lb.Epoch != 1 {
		t.Fatalf("holder state %+v", lb)
	}
	// Renewal advances the epoch bob observes.
	if _, err := a.Renew("cell", "alice"); err != nil {
		t.Fatal(err)
	}
	if lb, err = b.TryClaim("cell", "bob", 1); !errors.Is(err, ErrLeaseHeld) || lb.Epoch != 2 {
		t.Fatalf("stale steal must fail after renewal: lease=%+v err=%v", lb, err)
	}
	// Reclaim: bob's staleness evidence now covers epoch 2.
	lb, err = b.TryClaim("cell", "bob", 2)
	if err != nil {
		t.Fatalf("reclaim: %v", err)
	}
	if lb.Owner != "bob" || lb.Epoch != 3 {
		t.Fatalf("reclaimed lease %+v", lb)
	}
	// Alice's renewal now fails typed — she lost the lease.
	if _, err := a.Renew("cell", "alice"); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("want ErrLeaseLost, got %v", err)
	}
	// Alice's release is a harmless no-op; bob still holds.
	if err := a.Release("cell", "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.TryClaim("cell", "carol", 0); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("lease must survive a non-owner release: %v", err)
	}
	// Bob releases; the cell is free again.
	if err := b.Release("cell", "bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.TryClaim("cell", "carol", 0); err != nil {
		t.Fatalf("claim after release: %v", err)
	}
}

// TestLeaseClaimRace runs many claimers for one key concurrently; exactly
// one may win.
func TestLeaseClaimRace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.jsonl")
	const claimers = 8
	wins := make(chan string, claimers)
	var wg sync.WaitGroup
	for i := 0; i < claimers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := OpenShared(path)
			if err != nil {
				t.Error(err)
				return
			}
			defer h.Close()
			owner := fmt.Sprintf("w%d", i)
			if _, err := h.TryClaim("cell", owner, 0); err == nil {
				wins <- owner
			} else if !errors.Is(err, ErrLeaseHeld) {
				t.Errorf("claimer %s: %v", owner, err)
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	var winners []string
	for w := range wins {
		winners = append(winners, w)
	}
	if len(winners) != 1 {
		t.Fatalf("want exactly one winner, got %v", winners)
	}
}

// TestSingleOwnerLockContentionTyped checks that opening a journal stream
// someone else holds surfaces ErrLeaseHeld rather than an opaque failure.
func TestSingleOwnerLockContentionTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	j, err := OpenJournalStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := OpenJournalStream(path); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("want ErrLeaseHeld on contended open, got %v", err)
	}
}

// TestSharedUpdateAtomicity: a transaction that errors must leave no bytes
// behind; one that appends multiple entries lands them together.
func TestSharedUpdateAtomicity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.jsonl")
	s, err := OpenShared(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sentinel := errors.New("abort")
	err = s.Update(func(tx *Tx) error {
		if err := tx.Append("x", sharedPayload{N: 1}); err != nil {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel, got %v", err)
	}
	if s.len() != 0 {
		t.Fatal("aborted tx leaked entries")
	}
	if st, _ := os.Stat(path); st.Size() != 0 {
		t.Fatalf("aborted tx wrote %d bytes", st.Size())
	}
	err = s.Update(func(tx *Tx) error {
		if err := tx.Append("a", sharedPayload{N: 1}); err != nil {
			return err
		}
		var got sharedPayload
		if ok, err := tx.Lookup("a", &got); err != nil || !ok || got.N != 1 {
			return fmt.Errorf("tx-local visibility: ok=%v err=%v", ok, err)
		}
		return tx.Append("b", sharedPayload{N: 2})
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.len() != 2 {
		t.Fatalf("want 2 entries, got %d", s.len())
	}
}
