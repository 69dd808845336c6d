package forensics

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/persist"
)

func pairsOf(suspicion []float64, mal []bool) []scorePair {
	ps := make([]scorePair, len(suspicion))
	for i := range ps {
		ps[i] = scorePair{suspicion: suspicion[i], malicious: mal[i]}
	}
	return ps
}

func TestConfusionRates(t *testing.T) {
	c := Confusion{TP: 3, FP: 1, TN: 9, FN: 1}
	if got := c.TPR(); got != 0.75 {
		t.Fatalf("TPR = %v, want 0.75", got)
	}
	if got := c.FPR(); got != 0.1 {
		t.Fatalf("FPR = %v, want 0.1", got)
	}
	if got := c.Precision(); got != 0.75 {
		t.Fatalf("Precision = %v, want 0.75", got)
	}
	if got := c.F1(); got != 0.75 {
		t.Fatalf("F1 = %v, want 0.75", got)
	}
	// Zero denominators must yield NaN, not a division panic — the
	// all-filtered / zero-responder regression.
	zero := Confusion{}
	for name, v := range map[string]float64{
		"TPR": zero.TPR(), "FPR": zero.FPR(), "Precision": zero.Precision(), "F1": zero.F1(),
	} {
		if !math.IsNaN(v) {
			t.Fatalf("%s of empty confusion = %v, want NaN", name, v)
		}
	}
}

func TestDetectionAUC(t *testing.T) {
	mal := []bool{true, true, false, false}
	// Perfect separation: malicious strictly more suspicious.
	if got := detectionAUC(pairsOf([]float64{5, 4, 1, 0}, mal)); got != 1 {
		t.Fatalf("separable AUC = %v, want 1", got)
	}
	// Inverted scores.
	if got := detectionAUC(pairsOf([]float64{0, 1, 4, 5}, mal)); got != 0 {
		t.Fatalf("inverted AUC = %v, want 0", got)
	}
	// All tied: chance level via average ranks.
	if got := detectionAUC(pairsOf([]float64{2, 2, 2, 2}, mal)); got != 0.5 {
		t.Fatalf("tied AUC = %v, want 0.5", got)
	}
	// Single-class inputs are undefined.
	if got := detectionAUC(pairsOf([]float64{1, 2}, []bool{true, true})); !math.IsNaN(got) {
		t.Fatalf("single-class AUC = %v, want NaN", got)
	}
	if got := detectionAUC(nil); !math.IsNaN(got) {
		t.Fatalf("empty AUC = %v, want NaN", got)
	}
	// A half-right ranking: one of two attackers below one benign update.
	got := detectionAUC(pairsOf([]float64{5, 1, 3, 0}, mal))
	if got != 0.75 {
		t.Fatalf("partial AUC = %v, want 0.75", got)
	}
}

func TestTPRAtFPR(t *testing.T) {
	// 2 malicious at suspicion {9, 7}, 10 benign at {8, 6, 5, …}: catching
	// the first attacker costs 0 FP, the second costs 1 of 10 benign (10%).
	susp := []float64{9, 7, 8, 6, 5, 4.5, 4, 3.5, 3, 2.5, 2, 1.5}
	mal := []bool{true, true, false, false, false, false, false, false, false, false, false, false}
	ps := pairsOf(susp, mal)
	if got := tprAtFPR(ps, 0.01); got != 0.5 {
		t.Fatalf("TPR@1%%FPR = %v, want 0.5", got)
	}
	if got := tprAtFPR(ps, 0.10); got != 1 {
		t.Fatalf("TPR@10%%FPR = %v, want 1", got)
	}
	if got := tprAtFPR(nil, 0.01); !math.IsNaN(got) {
		t.Fatalf("TPR@FPR of empty = %v, want NaN", got)
	}
}

func TestROCCurveEndpoints(t *testing.T) {
	ps := pairsOf([]float64{3, 1, 2, 0}, []bool{true, false, true, false})
	curve := rocCurve(ps)
	if len(curve) == 0 {
		t.Fatal("no curve")
	}
	first, last := curve[0], curve[len(curve)-1]
	if first.FPR != 0 || first.TPR != 0 {
		t.Fatalf("curve starts at %+v, want (0,0)", first)
	}
	if last.FPR != 1 || last.TPR != 1 {
		t.Fatalf("curve ends at %+v, want (1,1)", last)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].FPR < curve[i-1].FPR || curve[i].TPR < curve[i-1].TPR {
			t.Fatalf("curve not monotone at %d: %+v", i, curve)
		}
	}
}

// TestDetectionMetricsTerminateOnNaN: a NaN suspicion equals nothing, not
// even itself, so a tie group must still advance past it. Both sweeps used
// to spin forever on one.
func TestDetectionMetricsTerminateOnNaN(t *testing.T) {
	ps := pairsOf([]float64{3, math.NaN(), 2, 0}, []bool{true, false, true, false})
	if got := detectionAUC(ps); math.IsInf(got, 0) {
		t.Fatalf("AUC %v", got)
	}
	if curve := rocCurve(ps); len(curve) != len(ps)+1 {
		t.Fatalf("curve has %d vertices, want %d: %+v", len(curve), len(ps)+1, curve)
	}
}

// TestSummaryJSONRoundTrip pins the one shared serialization shape (run
// store, audit journal, HTTP): NaN rates travel as null and come back as
// NaN; everything else is bit-exact.
func TestSummaryJSONRoundTrip(t *testing.T) {
	s := Summary{
		Defense: "refd", ScoreName: "dscore",
		Aggregations: 7, DecisionRounds: 6, ZeroSelectionRounds: 1,
		Updates: 70, MaliciousSeen: 9,
		Confusion: Confusion{TP: 5, FP: 2, TN: 59, FN: 4},
		TPR:       5.0 / 9, FPR: 2.0 / 61, Precision: 5.0 / 7, F1: 10.0 / 16,
		AUC: persist.Float(math.NaN()), TPRAt1FPR: persist.Float(math.NaN()),
		ScorePairs: 70, ReservoirLen: 70,
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"auc":null`) {
		t.Fatalf("NaN AUC should serialize as null: %s", raw)
	}
	var back Summary
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(back.AUC)) || !math.IsNaN(float64(back.TPRAt1FPR)) {
		t.Fatalf("null rates should decode to NaN: %+v", back)
	}
	back.AUC, back.TPRAt1FPR = 0, 0
	s.AUC, s.TPRAt1FPR = 0, 0
	if back != s {
		t.Fatalf("round trip drifted:\n%+v\n%+v", s, back)
	}
}
