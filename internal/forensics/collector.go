package forensics

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/fl"
	"repro/internal/persist"
)

// AuditRecord is the per-update line of the audit stream: the defense's
// decision on one update joined with its fingerprint and the ground truth.
type AuditRecord struct {
	// ClientID identifies the submitting client.
	ClientID int `json:"client"`
	// Malicious is the simulator's ground truth (always false over real
	// sockets, where the server cannot know).
	Malicious bool `json:"malicious,omitempty"`
	// Decided reports whether the defense exposed a selection at all;
	// Accepted is meaningful only when it did.
	Decided bool `json:"decided"`
	// Accepted reports whether the update entered the aggregate.
	Accepted bool `json:"accepted"`
	// Group is the hierarchical group-tier aggregator that consumed the
	// update, or −1 under flat aggregation.
	Group int `json:"group"`
	// Weight is the aggregation weight for weighted rules (nil otherwise).
	Weight *float64 `json:"weight,omitempty"`
	// Score is the defense's benignness score (nil for unscored rules).
	Score *float64 `json:"score,omitempty"`
	// Fingerprint is the update's geometric summary.
	Fingerprint Fingerprint `json:"fingerprint"`
}

// jf is a Weight or Score as an AuditRecord carries it: nil, and so
// omitted, when the value is not finite.
func jf(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// RoundAudit is one aggregation's full audit entry: every update's record
// plus the aggregation's detection metrics.
type RoundAudit struct {
	// Round and Seq identify the aggregation (Seq > 0 only for async
	// buffer flushes after the first in a round).
	Round int `json:"round"`
	Seq   int `json:"seq"`
	// Defense names the rule that made the decisions.
	Defense string `json:"defense"`
	// ScoreName names the score semantic, when the rule produced scores.
	ScoreName string `json:"scoreName,omitempty"`
	// ZeroSelection marks a no-responder or all-filtered aggregation.
	ZeroSelection bool `json:"zeroSelection,omitempty"`
	// Records holds one entry per update, in submission order.
	Records []AuditRecord `json:"records"`
	// Metrics is the aggregation's detection snapshot.
	Metrics RoundMetrics `json:"metrics"`
}

// Options configures a Collector. The zero value of every bound selects a
// default, so Options{Defense: name} is a working configuration.
type Options struct {
	// Defense names the audited rule (display only).
	Defense string
	// Ring bounds the in-memory round-audit ring (0 = 64). The ring is what
	// the HTTP /rounds endpoint serves.
	Ring int
	// ReservoirCap bounds the cumulative score-pair reservoir the AUC and
	// TPR@FPR metrics are computed over (0 = 4096). With R pairs kept, a
	// 1M-client run's forensic state stays O(R + Ring·K) regardless of
	// rounds — inside the lazy population's heap bounds.
	ReservoirCap int
	// Seed derives the reservoir's deterministic replacement draws, so a
	// fixed-seed run reproduces its metrics bit-identically.
	Seed int64
	// AuditPath, when non-empty, journals every RoundAudit as one JSONL
	// line (internal/persist.Journal: crash-tolerant, resumable).
	AuditPath string
}

// Collector implements fl.AggregationObserver: it fingerprints every
// update, joins the defense's Selection against ground truth, streams the
// detection metrics, and fans the audit entries out to the configured
// sinks. Safe for concurrent use (the engine writes, HTTP handlers read).
type Collector struct {
	mu   sync.Mutex
	opts Options

	journal    *persist.Journal
	journalErr error

	// Streaming state.
	aggs, decided, zeroSel int
	updates, malicious     int
	cum                    Confusion
	scoreName              string
	pairsSeen              int
	reservoir              []scorePair
	lastRound, lastSeq     int
	haveRound              bool

	// ring holds the most recent RoundAudits; next is the write cursor.
	ring []RoundAudit
	next int
}

var _ fl.AggregationObserver = (*Collector)(nil)

// NewCollector builds a collector, opening the audit journal when
// configured.
func NewCollector(opts Options) (*Collector, error) {
	if opts.Ring < 0 || opts.ReservoirCap < 0 {
		return nil, fmt.Errorf("forensics: negative bounds (%d, %d)", opts.Ring, opts.ReservoirCap)
	}
	if opts.Ring == 0 {
		opts.Ring = 64
	}
	if opts.ReservoirCap == 0 {
		opts.ReservoirCap = 4096
	}
	c := &Collector{opts: opts, ring: make([]RoundAudit, 0, opts.Ring)}
	if opts.AuditPath != "" {
		// The write-only stream: the audit journal grows with run length,
		// so it keeps nothing in memory and syncs once, at Close.
		j, err := persist.OpenJournalStream(opts.AuditPath)
		if err != nil {
			return nil, err
		}
		c.journal = j
	}
	return c, nil
}

// ObserveAggregation implements fl.AggregationObserver.
func (c *Collector) ObserveAggregation(round int, global []float64, updates []fl.Update, sel fl.Selection) {
	fps := Fingerprints(global, updates, sel.Distances)

	c.mu.Lock()
	defer c.mu.Unlock()

	seq := 0
	if c.haveRound && round == c.lastRound {
		seq = c.lastSeq + 1
	}
	c.haveRound, c.lastRound, c.lastSeq = true, round, seq

	accepted := make([]bool, len(updates))
	for _, idx := range sel.Accepted {
		if idx >= 0 && idx < len(updates) {
			accepted[idx] = true
		}
	}
	rm := RoundMetrics{
		Round:         round,
		Seq:           seq,
		Updates:       len(updates),
		Known:         sel.Known(),
		ZeroSelection: len(updates) == 0 || (sel.Known() && len(sel.Accepted) == 0),
		AUC:           persist.Float(math.NaN()),
	}
	for _, u := range updates {
		if u.Malicious {
			rm.Malicious++
		}
	}
	if rm.Known {
		for i, u := range updates {
			switch {
			case u.Malicious && accepted[i]:
				rm.FN++
			case u.Malicious:
				rm.TP++
			case accepted[i]:
				rm.TN++
			default:
				rm.FP++
			}
		}
		c.decided++
		c.cum.add(rm.Confusion)
	}
	if rm.ZeroSelection {
		c.zeroSel++
	}
	c.aggs++
	c.updates += rm.Updates
	c.malicious += rm.Malicious

	scored := len(sel.Scores) == len(updates) && len(updates) > 0
	if scored {
		if c.scoreName == "" {
			c.scoreName = sel.ScoreName
		}
		pairs := make([]scorePair, len(updates))
		for i, u := range updates {
			pairs[i] = scorePair{suspicion: -sel.Scores[i], malicious: u.Malicious}
		}
		rm.AUC = persist.Float(detectionAUC(pairs))
		// The cumulative reservoir pools pairs across rounds, but raw score
		// scales drift with training (Krum distances and D-scores shrink as
		// updates converge), which would let a benign early round outrank a
		// malicious late one. Rank-normalize within the round first — the
		// same transform the hierarchy applies across groups; per-round AUC
		// above is rank-invariant and needs no transform. A round holding
		// one class only is not pooled: its ranks separate nothing, yet its
		// most suspicious update would outrank other rounds' attackers.
		if rm.Malicious > 0 && rm.Malicious < rm.Updates {
			for i, rank := range fl.ScoreRanks(sel.Scores) {
				c.offer(scorePair{suspicion: 1 - rank, malicious: updates[i].Malicious})
			}
		}
	}

	records := make([]AuditRecord, len(updates))
	for i, u := range updates {
		rec := AuditRecord{
			ClientID:    u.ClientID,
			Malicious:   u.Malicious,
			Decided:     rm.Known,
			Accepted:    rm.Known && accepted[i],
			Group:       -1,
			Fingerprint: fps[i],
		}
		if len(sel.Groups) == len(updates) {
			rec.Group = sel.Groups[i]
		}
		if len(sel.Weights) == len(updates) {
			rec.Weight = jf(sel.Weights[i])
		}
		if scored {
			rec.Score = jf(sel.Scores[i])
		}
		records[i] = rec
	}
	ra := RoundAudit{
		Round:         round,
		Seq:           seq,
		Defense:       c.opts.Defense,
		ScoreName:     sel.ScoreName,
		ZeroSelection: rm.ZeroSelection,
		Records:       records,
		Metrics:       rm,
	}
	if len(c.ring) < c.opts.Ring {
		c.ring = append(c.ring, ra)
	} else {
		c.ring[c.next] = ra
	}
	c.next = (c.next + 1) % c.opts.Ring

	if c.journal != nil && c.journalErr == nil {
		key := fmt.Sprintf("r%08d.%04d", round, seq)
		if err := c.journal.Append(key, ra); err != nil {
			c.journalErr = err
		}
	}
}

// offer streams one score pair into the bounded reservoir (Algorithm R
// with deterministic splitmix draws).
func (c *Collector) offer(p scorePair) {
	i := c.pairsSeen
	c.pairsSeen++
	if len(c.reservoir) < c.opts.ReservoirCap {
		c.reservoir = append(c.reservoir, p)
		return
	}
	j := int(splitmix64(uint64(c.opts.Seed)+uint64(i)) % uint64(i+1))
	if j < c.opts.ReservoirCap {
		c.reservoir[j] = p
	}
}

// Summary returns the cumulative detection report.
func (c *Collector) Summary() Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Summary{
		Defense:             c.opts.Defense,
		ScoreName:           c.scoreName,
		Aggregations:        c.aggs,
		DecisionRounds:      c.decided,
		ZeroSelectionRounds: c.zeroSel,
		Updates:             c.updates,
		MaliciousSeen:       c.malicious,
		Confusion:           c.cum,
		TPR:                 persist.Float(c.cum.TPR()),
		FPR:                 persist.Float(c.cum.FPR()),
		Precision:           persist.Float(c.cum.Precision()),
		F1:                  persist.Float(c.cum.F1()),
		AUC:                 persist.Float(detectionAUC(c.reservoir)),
		TPRAt1FPR:           persist.Float(tprAtFPR(c.reservoir, 0.01)),
		ScorePairs:          c.pairsSeen,
		ReservoirLen:        len(c.reservoir),
	}
}

// Rounds returns the ring's audits, oldest first.
func (c *Collector) Rounds() []RoundAudit {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RoundAudit, 0, len(c.ring))
	if len(c.ring) < c.opts.Ring {
		return append(out, c.ring...)
	}
	out = append(out, c.ring[c.next:]...)
	return append(out, c.ring[:c.next]...)
}

// Event is one ring entry as GET <prefix>/rounds serves it: the audit's
// ring cursor (total aggregations observed when it landed, so cursors are
// dense and strictly increasing) and its encoded RoundAudit.
type Event struct {
	Cursor uint64          `json:"cursor"`
	Audit  json.RawMessage `json:"audit"`
}

// EventsSince returns the ring entries with cursor > since, oldest first,
// and the head cursor: the one read of the ring, behind GET
// <prefix>/rounds. A poller that carries the returned cursor forward reads
// each audit exactly once while the ring covers its polling gap; one whose
// gap outran the ring gets the whole ring (the missed middle is gone, not
// misnumbered). Cursors are derived, not stored: the ring holds the last
// len(ring) of c.aggs audits, so oldest-first entry i carries cursor
// aggs − len(ring) + i + 1.
func (c *Collector) EventsSince(since uint64) ([]Event, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	total, n := uint64(c.aggs), len(c.ring)
	out := []Event{} // encodes as [], never null
	for i := range n {
		cur := total - uint64(n) + uint64(i) + 1
		if cur <= since {
			continue
		}
		// Until the ring fills, next == len(ring), so the oldest entry is
		// at next mod len(ring) either way.
		data, err := json.Marshal(c.ring[(c.next+i)%n])
		if err != nil {
			continue
		}
		out = append(out, Event{Cursor: cur, Audit: data})
	}
	return out, total
}

// Close releases the audit journal, returning any recorded write failure.
func (c *Collector) Close() error {
	c.mu.Lock()
	j, err := c.journal, c.journalErr
	c.journal = nil
	c.mu.Unlock()
	if j != nil {
		if cerr := j.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
