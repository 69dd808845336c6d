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

// keyVersion is hashed into every run key and prefixed to every baseline
// key. Bump it when a code change moves the outcomes existing configurations
// produce, so a store written before the change recomputes instead of
// replaying numbers the code can no longer reproduce. A new Config field
// needs no bump: it re-keys every cell by itself. v3: every field of the
// normalized Config is hashed, Forensics included, and baselines are keyed
// by the run key of their own clean config.
const keyVersion = "v3|"

// runKey is the canonical identity of one grid cell: a hash of the key
// version, the whole normalized configuration and the seed-averaging width,
// so the same cell resolves to the same key across processes while any
// parameter change (including AverageSeeds) yields a fresh one.
func runKey(cfg Config, seeds int) (string, error) {
	c := cfg
	if err := c.Normalize(); err != nil {
		return "", err
	}
	if seeds < 1 {
		seeds = 1
	}
	// The identity hash must fail loudly on a non-finite parameter: mapping
	// NaN to null here would silently alias distinct configs onto one key.
	raw, err := json.Marshal(c) //lint:allow nanjson key derivation must error on non-finite params, not alias them
	if err != nil {
		return "", fmt.Errorf("experiment: key: %w", err)
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s%s|seeds=%d", keyVersion, raw, seeds)))
	return hex.EncodeToString(sum[:]), nil
}

// baselineKey is the journal identity of the clean baseline cleanOf
// returned: its run key, so cells that differ only in attack-side
// parameters (SampleCount, NoReg, …) share one journaled baseline. The
// "baseline|" namespace keeps a clean grid cell's own outcome (which
// carries filled CleanAcc/ASR) from colliding with its raw baseline record.
func baselineKey(clean Config) (string, error) {
	key, err := runKey(clean, 1)
	if err != nil {
		return "", err
	}
	return "baseline|" + keyVersion + key, nil
}

// storedOutcome is the JSON shape of an Outcome in the run store. The
// paper's metrics use NaN for "not applicable" (DPR on non-selecting
// defenses, unevaluated rounds), which encoding/json rejects, so every
// NaN-able float travels as a nullable pointer.
type storedOutcome struct {
	Config        Config             `json:"config"`
	CleanAcc      *float64           `json:"cleanAcc"`
	MaxAcc        *float64           `json:"maxAcc"`
	FinalAcc      *float64           `json:"finalAcc"`
	ASR           *float64           `json:"asr"`
	DPR           *float64           `json:"dpr"`
	AccTimeline   []*float64         `json:"accTimeline,omitempty"`
	SynthesisLoss [][]*float64       `json:"synthesisLoss,omitempty"`
	Trace         []storedRound      `json:"trace,omitempty"`
	Detection     *forensics.Summary `json:"detection,omitempty"`
}

// Detection travels as *forensics.Summary directly: Summary owns its own
// NaN-safe JSON shape (Marshal/UnmarshalJSON), shared with the audit
// journal and the HTTP endpoint, so the store cannot drift from them.

// storedRound is the JSON shape of one fl.RoundStats entry; the accuracy
// travels as a nullable pointer because unevaluated rounds carry NaN.
type storedRound struct {
	Round             int      `json:"round"`
	Accuracy          *float64 `json:"acc"`
	SelectedMalicious int      `json:"selMal"`
	PassedMalicious   int      `json:"passMal"`
	Selected          int      `json:"selected"`
	Dropped           int      `json:"dropped"`
	Straggled         int      `json:"straggled"`
	Responded         int      `json:"responded"`
	Aggregations      int      `json:"aggs"`
}

func encFloat(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

func decFloat(p *float64) float64 {
	if p == nil {
		return math.NaN()
	}
	return *p
}

func encFloats(vs []float64) []*float64 {
	if vs == nil {
		return nil
	}
	out := make([]*float64, len(vs))
	for i, v := range vs {
		out[i] = encFloat(v)
	}
	return out
}

func decFloats(ps []*float64) []float64 {
	if ps == nil {
		return nil
	}
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = decFloat(p)
	}
	return out
}

func encodeOutcome(o *Outcome) storedOutcome {
	s := storedOutcome{
		Config:      o.Config,
		CleanAcc:    encFloat(o.CleanAcc),
		MaxAcc:      encFloat(o.MaxAcc),
		FinalAcc:    encFloat(o.FinalAcc),
		ASR:         encFloat(o.ASR),
		DPR:         encFloat(o.DPR),
		AccTimeline: encFloats(o.AccTimeline),
		Detection:   o.Detection,
	}
	if o.SynthesisLoss != nil {
		s.SynthesisLoss = make([][]*float64, len(o.SynthesisLoss))
		for i, round := range o.SynthesisLoss {
			s.SynthesisLoss[i] = encFloats(round)
		}
	}
	if o.Trace != nil {
		s.Trace = make([]storedRound, len(o.Trace))
		for i, rs := range o.Trace {
			s.Trace[i] = storedRound{
				Round:             rs.Round,
				Accuracy:          encFloat(rs.Accuracy),
				SelectedMalicious: rs.SelectedMalicious,
				PassedMalicious:   rs.PassedMalicious,
				Selected:          rs.Selected,
				Dropped:           rs.Dropped,
				Straggled:         rs.Straggled,
				Responded:         rs.Responded,
				Aggregations:      rs.Aggregations,
			}
		}
	}
	return s
}

func decodeOutcome(s storedOutcome) *Outcome {
	o := &Outcome{
		Config:      s.Config,
		CleanAcc:    decFloat(s.CleanAcc),
		MaxAcc:      decFloat(s.MaxAcc),
		FinalAcc:    decFloat(s.FinalAcc),
		ASR:         decFloat(s.ASR),
		DPR:         decFloat(s.DPR),
		AccTimeline: decFloats(s.AccTimeline),
		Detection:   s.Detection,
	}
	if s.SynthesisLoss != nil {
		o.SynthesisLoss = make([][]float64, len(s.SynthesisLoss))
		for i, round := range s.SynthesisLoss {
			o.SynthesisLoss[i] = decFloats(round)
		}
	}
	if s.Trace != nil {
		o.Trace = make([]fl.RoundStats, len(s.Trace))
		for i, sr := range s.Trace {
			o.Trace[i] = fl.RoundStats{
				Round:             sr.Round,
				Accuracy:          decFloat(sr.Accuracy),
				SelectedMalicious: sr.SelectedMalicious,
				PassedMalicious:   sr.PassedMalicious,
				Selected:          sr.Selected,
				Dropped:           sr.Dropped,
				Straggled:         sr.Straggled,
				Responded:         sr.Responded,
				Aggregations:      sr.Aggregations,
			}
		}
	}
	return o
}

// Store is the run store: a persist.SharedJournal holding one JSONL record
// per completed grid cell (under its runKey) and clean baseline (under its
// baselineKey), plus the work-claiming leases under the "lease|" namespace,
// which never collide with either. Every sweep drains its grid through it:
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

// len reports the number of stored runs and baselines (lease records
// excluded).
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
