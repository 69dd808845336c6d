package persist

import (
	"fmt"
	"strings"
)

// Work-claiming leases over a SharedJournal. A lease is an ordinary journal
// entry under "lease|<key>", so the on-disk format, crash tolerance and
// fuzzed recovery path are exactly the journal's own; later lines win, so
// the latest lease line is the authoritative state.
//
// Epochs are wall-clock-free: a lease carries only a monotonic counter that
// the holder bumps on every renewal. Liveness is judged by observation, not
// by timestamps — a claimer that watches the same (owner, epoch) pair stand
// still across enough of its own polls concludes the holder is dead and
// reclaims at epoch+1. Two claimers can never both win: every claim is an
// exclusive-lock Update transaction that re-reads the tail first, so the
// second claimer sees the first's line and backs off with ErrLeaseHeld.
// No clock comparison ever crosses a process boundary.

// Lease is the journaled state of one work claim.
type Lease struct {
	// Owner identifies the claiming process (worker name).
	Owner string `json:"owner"`
	// Epoch increases on every claim, renewal and reclaim; a stalled epoch
	// is the (observational) death signal.
	Epoch uint64 `json:"epoch"`
	// Held is false once the owner released the lease.
	Held bool `json:"held"`
}

// leasePrefix namespaces lease entries away from result cells, so run keys
// and legacy journals are untouched by the claiming substrate.
const leasePrefix = "lease|"

// LeaseKey returns the journal key of the lease guarding key.
func LeaseKey(key string) string { return leasePrefix + key }

// IsLeaseKey reports whether a journal key is a lease record.
func IsLeaseKey(key string) bool { return strings.HasPrefix(key, leasePrefix) }

// TryClaim attempts to acquire (or, for the current owner, renew) the lease
// guarding key. A lease held by another owner may be reclaimed only when
// its epoch is at most stealEpoch — the caller's staleness evidence, 0
// meaning "never steal". On contention the holder's lease is returned with
// ErrLeaseHeld so the caller can update its liveness observations.
func (s *SharedJournal) TryClaim(key, owner string, stealEpoch uint64) (Lease, error) {
	if owner == "" {
		return Lease{}, fmt.Errorf("persist: lease owner must not be empty")
	}
	var out Lease
	err := s.Update(func(tx *Tx) error {
		var cur Lease
		ok, err := tx.Lookup(LeaseKey(key), &cur)
		if err != nil {
			return err
		}
		switch {
		case !ok || !cur.Held: // free
		case cur.Owner == owner: // re-entrant claim renews
		case stealEpoch > 0 && cur.Epoch <= stealEpoch: // observed dead
		default:
			out = cur
			return ErrLeaseHeld
		}
		out = Lease{Owner: owner, Epoch: cur.Epoch + 1, Held: true}
		return tx.Append(LeaseKey(key), out)
	})
	return out, err
}

// Renew bumps the epoch of a lease this owner holds, proving liveness to
// observers. ErrLeaseLost reports that the lease was released or reclaimed.
func (s *SharedJournal) Renew(key, owner string) (Lease, error) {
	var out Lease
	err := s.Update(func(tx *Tx) error {
		var cur Lease
		ok, err := tx.Lookup(LeaseKey(key), &cur)
		if err != nil {
			return err
		}
		if !ok || !cur.Held || cur.Owner != owner {
			out = cur
			return ErrLeaseLost
		}
		out = Lease{Owner: owner, Epoch: cur.Epoch + 1, Held: true}
		return tx.Append(LeaseKey(key), out)
	})
	return out, err
}

// Release marks the lease free. Releasing a lease this owner no longer
// holds is a no-op (the reclaimer owns it now), so Release is safe to call
// unconditionally on completion paths.
func (s *SharedJournal) Release(key, owner string) error {
	return s.Update(func(tx *Tx) error {
		var cur Lease
		ok, err := tx.Lookup(LeaseKey(key), &cur)
		if err != nil {
			return err
		}
		if !ok || !cur.Held || cur.Owner != owner {
			return nil
		}
		return tx.Append(LeaseKey(key), Lease{Owner: owner, Epoch: cur.Epoch + 1, Held: false})
	})
}
