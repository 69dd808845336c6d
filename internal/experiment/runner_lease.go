package experiment

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/persist"
)

// Lease-coordinated grid draining. RunGrid is one worker of a fleet over
// its Store: every cell is leased before execution, results recorded by any
// process are adopted as they appear, and leases whose epoch stalls across
// enough local polls are reclaimed from crashed workers. The store is the
// only coordination channel — workers never talk to each other, and no wall
// clock crosses a process boundary. A nil store grants every claim, so a
// storeless grid drains through the same path.

// leaseObserver accumulates one claimer's liveness evidence about one
// foreign lease. Polls are timed locally: an observation only counts when at
// least minGap has passed since the previous one of the same epoch, so a
// tight retry loop cannot fabricate staleness.
type leaseObserver struct {
	epoch uint64
	seen  bool
	polls int
	last  time.Time
}

func (o *leaseObserver) observe(l persist.Lease, minGap time.Duration) {
	now := time.Now()
	if !o.seen || l.Epoch != o.epoch {
		// Fresh epoch: the holder is alive (or new); restart the count.
		o.epoch, o.polls, o.seen, o.last = l.Epoch, 0, true, now
		return
	}
	if now.Sub(o.last) >= minGap {
		o.polls++
		o.last = now
	}
}

// stealEpoch returns the epoch this observer has proven stale (safe to hand
// to TryClaim), or 0 while the evidence is insufficient.
func (o *leaseObserver) stealEpoch(expirePolls int) uint64 {
	if o.seen && o.polls >= expirePolls {
		return o.epoch
	}
	return 0
}

// acquire resolves key for this worker: it returns the outcome some process
// already recorded (there is nothing to run), or mine when the key's lease
// is now this worker's; with neither, a live foreign lease holds key and
// obs has noted it.
func (r *Runner) acquire(key string, obs *leaseObserver) (recorded *Outcome, mine bool, err error) {
	if out, ok, err := r.Store.Lookup(key); err != nil || ok {
		return out, false, err
	}
	steal := obs.stealEpoch(r.leaseExpirePolls)
	lease, err := r.Store.TryClaim(key, steal)
	if errors.Is(err, persist.ErrLeaseHeld) {
		r.Telemetry.Conflict()
		obs.observe(lease, r.leasePoll)
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("lease claim: %w", err)
	}
	// The claim replayed the journal tail, so the view is current: if the
	// previous holder recorded the result and released between our scan
	// and our claim, adopt it rather than recompute.
	out, ok, err := r.Store.Lookup(key)
	if err != nil || ok {
		_ = r.Store.Release(key)
		return out, false, err
	}
	r.Telemetry.Claim(steal > 0)
	return nil, true, nil
}

// runLeased runs the cell whose lease this worker holds under a heartbeat,
// records its outcome and releases the lease. Losing the lease mid-run
// (another worker judged us dead) quietly ends the heartbeat: the
// computation continues, and the duplicate-free Record makes the double
// compute benign.
func (r *Runner) runLeased(key string, run func() (*Outcome, error)) (*Outcome, error) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(r.leaseRenewEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if r.Store.Renew(key) != nil {
					return
				}
			}
		}
	}()
	out, err := run()
	if err == nil {
		if rerr := r.Store.Record(key, out); rerr != nil {
			err = fmt.Errorf("store: %w", rerr)
		}
	}
	close(done)
	wg.Wait()
	_ = r.Store.Release(key)
	return out, err
}

// leaseScheduler hands grid cells to local workers: it adopts results other
// processes record, claims free cells, and reclaims cells whose holder's
// epoch has provably stalled.
type leaseScheduler struct {
	mu      sync.Mutex
	r       *Runner
	keys    []string
	pending []int
	obs     map[string]*leaseObserver
	err     error
}

// next blocks until it can hand the caller a claimed cell index. ok=false
// means the local grid is drained (every cell claimed locally, adopted
// remotely, or the scheduler failed — see err).
func (s *leaseScheduler) next(prog *progressTracker, outcomes []*Outcome) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.err != nil || len(s.pending) == 0 {
			return 0, false
		}
		if err := s.r.Store.Refresh(); err != nil {
			s.err = fmt.Errorf("experiment: store refresh: %w", err)
			return 0, false
		}
		// Adopt cells other workers finished since the last scan and claim
		// the first free one, observing the holders of the rest.
		for n := 0; n < len(s.pending); {
			i := s.pending[n]
			ob := s.obs[s.keys[i]]
			if ob == nil {
				ob = &leaseObserver{}
				s.obs[s.keys[i]] = ob
			}
			out, mine, err := s.r.acquire(s.keys[i], ob)
			switch {
			case err != nil:
				s.err = fmt.Errorf("experiment: store: %w", err)
				return 0, false
			case mine:
				s.pending = append(s.pending[:n], s.pending[n+1:]...)
				return i, true
			case out != nil:
				outcomes[i] = out
				s.r.Telemetry.Adopt()
				prog.report(out.Config, out, nil, false, true)
				s.pending = append(s.pending[:n], s.pending[n+1:]...)
			default:
				n++
			}
		}
		if len(s.pending) == 0 {
			return 0, false
		}
		// Every remaining cell is leased by another process: wait for its
		// result to appear or its lease to stale out, then rescan.
		s.mu.Unlock()
		time.Sleep(s.r.leasePoll)
		s.mu.Lock()
	}
}
