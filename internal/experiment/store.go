package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/fl"
	"repro/internal/forensics"
	"repro/internal/persist"
)

// RunStore persists completed runs across process restarts so an
// interrupted grid resumes where it died instead of recomputing every cell.
// Implementations must be safe for concurrent use by the grid workers.
type RunStore interface {
	// Lookup returns the stored outcome for key, if any.
	Lookup(key string) (*Outcome, bool, error)
	// Record durably stores the outcome under key.
	Record(key string, out *Outcome) error
}

// keyVersion is hashed into every run key and prefixed to every baseline
// key. Bump it when a code change moves the outcomes existing configurations
// produce, so a store written before the change recomputes instead of
// replaying numbers the code can no longer reproduce. v2: one round driver
// (per-(seed, round, id) training streams on the eager backend too).
const keyVersion = "v2|"

// runKey is the canonical identity of one grid cell: a hash of the key
// version, the normalized configuration and the seed-averaging width, so the
// same cell resolves to the same key across processes while any parameter
// change (including AverageSeeds) yields a fresh one.
func runKey(cfg Config, seeds int) (string, error) {
	c := cfg
	if err := c.Normalize(); err != nil {
		return "", err
	}
	// Forensics is pure observation (it never changes a run's results), so
	// it is stripped from the identity: a forensics-on cell resolves to the
	// same stored run as its forensics-off twin. A replayed entry from a
	// forensics-off run simply carries no Detection summary.
	c.Forensics = false
	c.ForensicsRing = 0
	c.ForensicsReservoir = 0
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

// baselineKey is the journal identity of a clean baseline. It is derived
// from cleanKey — the fields that actually affect a no-attack run — rather
// than the full config hash, so cells that differ only in attack-side
// parameters (SampleCount, NoReg, …) resolve to the same journaled
// baseline no matter which cell's latch computed it. The "baseline|"
// namespace keeps a clean grid cell's own outcome (which carries filled
// CleanAcc/ASR) from colliding with its raw baseline record.
func baselineKey(clean Config) (string, error) {
	if err := clean.Normalize(); err != nil {
		return "", err
	}
	return "baseline|" + keyVersion + clean.cleanKey(), nil
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

// JournalStore is the persist.Journal-backed RunStore: every completed cell
// becomes one durable JSONL line, and reopening the same path resumes from
// whatever the previous process managed to finish.
type JournalStore struct {
	j *persist.Journal
}

// OpenStore opens (creating if needed) the run store at path.
func OpenStore(path string) (*JournalStore, error) {
	j, err := persist.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	return &JournalStore{j: j}, nil
}

// Lookup returns the journaled outcome for key, if present.
func (s *JournalStore) Lookup(key string) (*Outcome, bool, error) {
	var rec storedOutcome
	ok, err := s.j.Lookup(key, &rec)
	if err != nil || !ok {
		return nil, false, err
	}
	return decodeOutcome(rec), true, nil
}

// Record journals the outcome under key.
func (s *JournalStore) Record(key string, out *Outcome) error {
	return s.j.Append(key, encodeOutcome(out))
}

// Len reports the number of journaled runs.
func (s *JournalStore) Len() int { return s.j.Len() }

// Close releases the underlying journal.
func (s *JournalStore) Close() error { return s.j.Close() }
