package telemetry

// Phase enumerates the engine's fixed round phases. The collect phase
// covers the transport round-trip — broadcast, client training and codec
// decode — for both the in-process simulator and the socket server; the
// distance-matrix geometry inside robust aggregation is reported
// separately, nested in the aggregate phase (EngineTelemetry.Distance).
// Phases may overlap: an attack that reads no benign update crafts beside
// collect (see fl.Engine), so the phase durations of a round can sum past
// the round's.
type Phase int

const (
	PhaseSelect Phase = iota
	PhaseCollect
	PhaseAttack
	PhaseEncode
	PhaseAggregate
	PhaseServerOpt
	PhaseEval
	PhaseCheckpoint
	phaseCount
)

// phaseNames are the phase label values and span names.
var phaseNames = [phaseCount]string{
	"select", "collect", "attack", "encode",
	"aggregate", "serveropt", "eval", "checkpoint",
}

// Name returns the phase's label value.
func (p Phase) Name() string {
	if p < 0 || p >= phaseCount {
		return "unknown"
	}
	return phaseNames[p]
}

// IntakeReason enumerates why the engine's update intake refused an
// update (see fl.Intake): the reason label of fl_updates_rejected_total.
type IntakeReason int

const (
	// IntakeNonFinite: a dense update holds a NaN or an infinity.
	IntakeNonFinite IntakeReason = iota
	// IntakeDimension: the update's dimension is not the global model's.
	IntakeDimension
	// IntakeSamples: the update reports a negative sample count.
	IntakeSamples
	intakeReasonCount
)

// intakeReasonNames are the reason label values.
var intakeReasonNames = [intakeReasonCount]string{"non-finite", "dimension", "negative-samples"}

// Name returns the reason's label value.
func (r IntakeReason) Name() string {
	if r < 0 || r >= intakeReasonCount {
		return "unknown"
	}
	return intakeReasonNames[r]
}

// EngineTelemetry bundles one federation's engine instruments: the round
// counter and duration histogram, one duration histogram per phase, the
// distance-matrix histogram, the codec byte counters and one intake
// rejection counter per reason, all under an optional federation label.
// Methods are nil-safe and the enabled hot path performs only atomic
// operations, so the engine threads one optional pointer with no
// conditionals and no allocation when disabled.
type EngineTelemetry struct {
	tracer *Tracer
	track  int32
	// attackTrack carries the attack phase alone: it can overlap collect
	// only partly, and trace viewers mis-nest such spans on one track.
	attackTrack int32

	rounds   *Counter
	roundDur *Histogram
	phaseDur [phaseCount]*Histogram
	distDur  *Histogram

	bytesIn  *Counter
	bytesOut *Counter
	frames   *Counter
	rejected [intakeReasonCount]*Counter
}

// NewEngineTelemetry registers one federation's engine instruments on reg
// (labelled federation="<id>" when id is non-empty) and binds its spans to
// tracer (which may be nil for metrics-only operation). A nil reg yields
// metric-less spans; both nil yields nil, the disabled state.
func NewEngineTelemetry(reg *Registry, tracer *Tracer, federation string) *EngineTelemetry {
	if reg == nil && tracer == nil {
		return nil
	}
	var labels []Label
	track := "engine"
	if federation != "" {
		labels = []Label{{Key: "federation", Value: federation}}
		track = "federation/" + federation
	}
	t := &EngineTelemetry{
		tracer:      tracer,
		track:       tracer.Track(track),
		attackTrack: tracer.Track(track + "/attack"),
		rounds: reg.Counter("fl_rounds_total",
			"Completed federated rounds.", labels...),
		roundDur: reg.Histogram("fl_round_seconds",
			"Wall-clock duration of one federated round.", labels...),
		bytesIn: reg.Counter("fl_codec_bytes_in_total",
			"Update payload bytes received (wire size of codec frames; 8B/coord for dense updates).", labels...),
		bytesOut: reg.Counter("fl_codec_bytes_out_total",
			"Model payload bytes broadcast to clients.", labels...),
		frames: reg.Counter("fl_codec_frames_total",
			"Codec frames carried by aggregated updates.", labels...),
		distDur: reg.Histogram("defense_distance_seconds",
			"Wall-clock time of the pairwise distance matrices one aggregation computed (hierarchical tiers summed).", labels...),
	}
	for p := Phase(0); p < phaseCount; p++ {
		t.phaseDur[p] = reg.Histogram("fl_phase_seconds",
			"Wall-clock duration of one engine phase; attack may run beside collect, so phases need not sum to the round.",
			append([]Label{{Key: "phase", Value: p.Name()}}, labels...)...)
	}
	for r := IntakeReason(0); r < intakeReasonCount; r++ {
		t.rejected[r] = reg.Counter("fl_updates_rejected_total",
			"Updates the engine's intake refused before aggregation, by reason (non-finite values, wrong dimension, negative sample count).",
			append([]Label{{Key: "reason", Value: r.Name()}}, labels...)...)
	}
	return t
}

// Round opens the whole-round span and counts the round.
func (t *EngineTelemetry) Round() Span {
	if t == nil {
		return Span{}
	}
	t.rounds.Inc()
	return Span{tracer: t.tracer, hist: t.roundDur, name: "round", track: t.track, start: Nanos()}
}

// Phase opens one engine-phase span.
func (t *EngineTelemetry) Phase(p Phase) Span {
	if t == nil {
		return Span{}
	}
	track := t.track
	if p == PhaseAttack {
		track = t.attackTrack
	}
	return Span{tracer: t.tracer, hist: t.phaseDur[p], name: p.Name(), track: track, start: Nanos()}
}

// Distance records ns of distance-matrix time that the rule reported for
// the aggregation agg timed (fl.Selection.DistanceNanos): one histogram
// observation and one distance-matrix span nested at the start of agg. A
// rule that computed no matrix reports 0, which records nothing.
func (t *EngineTelemetry) Distance(agg Span, ns int64) {
	if t == nil || ns <= 0 {
		return
	}
	t.distDur.ObserveNanos(ns)
	t.tracer.Emit(t.track, "distance-matrix", agg.start, ns)
}

// AddBytesIn counts received update payload bytes.
func (t *EngineTelemetry) AddBytesIn(n int) {
	if t != nil {
		t.bytesIn.Add(int64(n))
	}
}

// AddBytesOut counts broadcast model payload bytes.
func (t *EngineTelemetry) AddBytesOut(n int) {
	if t != nil {
		t.bytesOut.Add(int64(n))
	}
}

// AddFrames counts codec frames seen by aggregation.
func (t *EngineTelemetry) AddFrames(n int) {
	if t != nil {
		t.frames.Add(int64(n))
	}
}

// Rejected counts one update the intake refused, under its reason.
func (t *EngineTelemetry) Rejected(r IntakeReason) {
	if t != nil {
		t.rejected[r].Inc()
	}
}

// SweepTelemetry bundles one sweep worker's instruments: executed-cell
// count and duration, and the lease-protocol counters (claims, conflicts,
// reclaims, adoptions) under a worker label. Nil-safe throughout.
type SweepTelemetry struct {
	tracer *Tracer
	track  int32

	cells     *Counter
	cellDur   *Histogram
	claims    *Counter
	conflicts *Counter
	reclaims  *Counter
	adopted   *Counter
}

// NewSweepTelemetry registers one worker's sweep instruments (labelled
// worker="<owner>" when owner is non-empty).
func NewSweepTelemetry(reg *Registry, tracer *Tracer, owner string) *SweepTelemetry {
	if reg == nil && tracer == nil {
		return nil
	}
	var labels []Label
	track := "sweep"
	if owner != "" {
		labels = []Label{{Key: "worker", Value: owner}}
		track = "sweep/" + owner
	}
	return &SweepTelemetry{
		tracer: tracer,
		track:  tracer.Track(track),
		cells: reg.Counter("sweep_cells_total",
			"Grid cells executed by this worker.", labels...),
		cellDur: reg.Histogram("sweep_cell_seconds",
			"Wall-clock duration of one executed grid cell.", labels...),
		claims: reg.Counter("sweep_lease_claims_total",
			"Successful lease claims (fresh cells this worker took).", labels...),
		conflicts: reg.Counter("sweep_lease_conflicts_total",
			"Claim attempts lost to a live foreign lease.", labels...),
		reclaims: reg.Counter("sweep_lease_reclaims_total",
			"Leases reclaimed from workers whose epoch provably stalled.", labels...),
		adopted: reg.Counter("sweep_cells_adopted_total",
			"Cells adopted from results other workers recorded.", labels...),
	}
}

// Cell opens the span for one executed grid cell and counts it.
func (t *SweepTelemetry) Cell(name string) Span {
	if t == nil {
		return Span{}
	}
	t.cells.Inc()
	return Span{tracer: t.tracer, hist: t.cellDur, name: name, track: t.track, start: Nanos()}
}

// Claim counts a successful lease claim; stolen reports a reclaim from a
// provably stalled holder.
func (t *SweepTelemetry) Claim(stolen bool) {
	if t == nil {
		return
	}
	t.claims.Inc()
	if stolen {
		t.reclaims.Inc()
		t.tracer.Emit(t.track, "lease-reclaim", Nanos(), 0)
	}
}

// Conflict counts a claim attempt lost to a live foreign lease.
func (t *SweepTelemetry) Conflict() {
	if t == nil {
		return
	}
	t.conflicts.Inc()
}

// Adopt counts a cell adopted from another worker's recorded result.
func (t *SweepTelemetry) Adopt() {
	if t == nil {
		return
	}
	t.adopted.Inc()
	t.tracer.Emit(t.track, "adopt", Nanos(), 0)
}

// Cells returns the executed-cell count (0 on nil).
func (t *SweepTelemetry) Cells() int64 {
	if t == nil {
		return 0
	}
	return t.cells.Value()
}

// Conflicts returns the lease-conflict count (0 on nil).
func (t *SweepTelemetry) Conflicts() int64 {
	if t == nil {
		return 0
	}
	return t.conflicts.Value()
}
