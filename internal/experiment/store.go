package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/fl"
	"repro/internal/forensics"
	"repro/internal/persist"
)

// keyVersion is hashed into every run key. Bump it when a code change moves
// the outcomes existing configurations produce, so a store written before
// the change recomputes instead of replaying numbers the code can no longer
// reproduce. A new Config field needs no bump: it re-keys every cell by
// itself. v3: every field of the normalized Config is hashed, Forensics
// included, and baselines are keyed by the run key of their own clean
// config. v4: every draw of round r comes from (seed, r) and crafted updates
// sit at their selection slots, which moves every outcome. v5: every GEMM
// output and every dot product is one fused chain on every build, which
// moves the outcomes of cells whose small products, or whose purego and
// arm64 products, rounded twice; PopCache, which never changed a result,
// left the Config. v6: a cell is one seed's run — seed means are the
// report's reduction, not a stored record — so the key drops the
// seed-averaging width it used to carry. v7: a clean baseline is an ordinary
// cell under its own run key, and a record holds only what its run produced
// — CleanAcc and ASR are joined when a grid finishes, so they left the
// record.
const keyVersion = "v7|"

// runKey is the canonical identity of one grid cell: a hash of the key
// version and the whole normalized configuration, seed included, so the
// same cell resolves to the same key across processes while any parameter
// change yields a fresh one.
func runKey(cfg Config) (string, error) {
	c := cfg
	if err := c.Normalize(); err != nil {
		return "", err
	}
	// The identity hash must fail loudly on a non-finite parameter: mapping
	// NaN to null here would silently alias distinct configs onto one key.
	raw, err := json.Marshal(c) //lint:allow nanjson key derivation must error on non-finite params, not alias them
	if err != nil {
		return "", fmt.Errorf("experiment: key: %w", err)
	}
	sum := sha256.Sum256(append([]byte(keyVersion), raw...))
	return hex.EncodeToString(sum[:]), nil
}

// storedOutcome is the JSON shape of an Outcome in the run store. The
// paper's metrics use NaN for "not applicable" (DPR on non-selecting
// defenses, unevaluated rounds), so every NaN-able float is a
// persist.Float, which writes NaN as null; Detection is a
// forensics.Summary, whose rates are persist.Floats too. CleanAcc and ASR
// are not stored: they join the cell with its baseline's record (RunGrid).
type storedOutcome struct {
	Config        Config             `json:"config"`
	MaxAcc        persist.Float      `json:"maxAcc"`
	FinalAcc      persist.Float      `json:"finalAcc"`
	DPR           persist.Float      `json:"dpr"`
	AccTimeline   []persist.Float    `json:"accTimeline,omitempty"`
	SynthesisLoss [][]persist.Float  `json:"synthesisLoss,omitempty"`
	Trace         []storedRound      `json:"trace,omitempty"`
	Detection     *forensics.Summary `json:"detection,omitempty"`
	Digest        string             `json:"digest,omitempty"`
}

// storedRound is the JSON shape of one fl.RoundStats entry, under short
// keys; the accuracy is a persist.Float because unevaluated rounds carry
// NaN.
type storedRound struct {
	Round             int           `json:"round"`
	Accuracy          persist.Float `json:"acc"`
	SelectedMalicious int           `json:"selMal"`
	PassedMalicious   int           `json:"passMal"`
	Selected          int           `json:"selected"`
	Dropped           int           `json:"dropped"`
	Straggled         int           `json:"straggled"`
	Responded         int           `json:"responded"`
	Aggregations      int           `json:"aggs"`
}

// convert maps f over in, keeping nil as nil.
func convert[T, U any](in []T, f func(T) U) []U {
	if in == nil {
		return nil
	}
	out := make([]U, len(in))
	for i, v := range in {
		out[i] = f(v)
	}
	return out
}

// floats converts between []float64 and []persist.Float, keeping nil as
// nil.
func floats[U, T ~float64](in []T) []U {
	return convert(in, func(v T) U { return U(v) })
}

func encodeOutcome(o *Outcome) storedOutcome {
	return storedOutcome{
		Config:        o.Config,
		MaxAcc:        persist.Float(o.MaxAcc),
		FinalAcc:      persist.Float(o.FinalAcc),
		DPR:           persist.Float(o.DPR),
		AccTimeline:   floats[persist.Float](o.AccTimeline),
		SynthesisLoss: convert(o.SynthesisLoss, floats[persist.Float, float64]),
		Trace: convert(o.Trace, func(rs fl.RoundStats) storedRound {
			return storedRound{
				Round:             rs.Round,
				Accuracy:          persist.Float(rs.Accuracy),
				SelectedMalicious: rs.SelectedMalicious,
				PassedMalicious:   rs.PassedMalicious,
				Selected:          rs.Selected,
				Dropped:           rs.Dropped,
				Straggled:         rs.Straggled,
				Responded:         rs.Responded,
				Aggregations:      rs.Aggregations,
			}
		}),
		Detection: o.Detection,
		Digest:    o.Digest,
	}
}

func decodeOutcome(s storedOutcome) *Outcome {
	return &Outcome{
		Config:        s.Config,
		CleanAcc:      math.NaN(),
		MaxAcc:        float64(s.MaxAcc),
		FinalAcc:      float64(s.FinalAcc),
		ASR:           math.NaN(),
		DPR:           float64(s.DPR),
		AccTimeline:   floats[float64](s.AccTimeline),
		SynthesisLoss: convert(s.SynthesisLoss, floats[float64, persist.Float]),
		Trace: convert(s.Trace, func(sr storedRound) fl.RoundStats {
			return fl.RoundStats{
				Round:             sr.Round,
				Accuracy:          float64(sr.Accuracy),
				SelectedMalicious: sr.SelectedMalicious,
				PassedMalicious:   sr.PassedMalicious,
				Selected:          sr.Selected,
				Dropped:           sr.Dropped,
				Straggled:         sr.Straggled,
				Responded:         sr.Responded,
				Aggregations:      sr.Aggregations,
			}
		}),
		Detection: s.Detection,
		Digest:    s.Digest,
	}
}

// Store is the run store: a persist.SharedJournal holding one JSONL record
// per completed grid cell (under its runKey; a clean baseline is a cell),
// plus the work-claiming leases under the "lease|" namespace, which never
// collide with a run key. Every sweep drains its grid through it:
// recorded cells are adopted, never recomputed, so a killed sweep rerun
// against the same path executes only the missing cells, and N processes
// started on one path split the grid between them — each cell runs once
// fleet-wide (twice at most under a crash, where bit-identical determinism
// makes the duplicate compute benign: only the first record lands).
//
// A nil *Store is the "no store" case: every method is inert and every
// claim succeeds at once, so the one grid drain needs no branch for it.
type Store struct {
	j     *persist.SharedJournal
	owner string
}

// OpenStore opens (creating if needed) the run store at path, or returns
// nil for an empty path. owner names this process in lease records
// (diagnostics only); empty derives hostname-pid.
func OpenStore(path, owner string) (*Store, error) {
	if path == "" {
		return nil, nil
	}
	if owner == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "localhost"
		}
		owner = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	j, err := persist.OpenShared(path)
	if err != nil {
		return nil, err
	}
	return &Store{j: j, owner: owner}, nil
}

// Lookup returns the stored outcome for key in the current view; call
// Refresh to pick up other processes' records.
func (s *Store) Lookup(key string) (*Outcome, bool, error) {
	if s == nil {
		return nil, false, nil
	}
	var rec storedOutcome
	ok, err := s.j.Lookup(key, &rec)
	if err != nil || !ok {
		return nil, false, err
	}
	return decodeOutcome(rec), true, nil
}

// Record stores the outcome under key unless some process already did: the
// check-then-append runs inside one exclusive-lock transaction, so even a
// worker whose lease was stolen mid-cell cannot produce a duplicate record.
func (s *Store) Record(key string, out *Outcome) error {
	if s == nil {
		return nil
	}
	return s.j.Update(func(tx *persist.Tx) error {
		var existing json.RawMessage
		if ok, err := tx.Lookup(key, &existing); err != nil {
			return err
		} else if ok {
			return nil // first record wins; ours is bit-identical anyway
		}
		return tx.Append(key, encodeOutcome(out))
	})
}

// Refresh replays records other processes appended since the last look.
func (s *Store) Refresh() error {
	if s == nil {
		return nil
	}
	return s.j.Refresh()
}

// TryClaim leases key for this store's owner. stealEpoch authorizes
// reclaiming a lease whose epoch is at most that value (0 = never);
// contention returns the holder's lease with persist.ErrLeaseHeld.
func (s *Store) TryClaim(key string, stealEpoch uint64) (persist.Lease, error) {
	if s == nil {
		return persist.Lease{Held: true}, nil
	}
	return s.j.TryClaim(key, s.owner, stealEpoch)
}

// Renew proves liveness on a held lease; persist.ErrLeaseLost reports it
// was reclaimed.
func (s *Store) Renew(key string) error {
	if s == nil {
		return nil
	}
	_, err := s.j.Renew(key, s.owner)
	return err
}

// Release frees the lease on key; losing it first is not an error.
func (s *Store) Release(key string) error {
	if s == nil {
		return nil
	}
	return s.j.Release(key, s.owner)
}

// len reports the number of stored cells (lease records excluded).
func (s *Store) len() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, k := range s.j.Keys() {
		if !persist.IsLeaseKey(k) {
			n++
		}
	}
	return n
}

// Close releases the underlying journal.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	return s.j.Close()
}
