package experiment

// Forensics wiring tests: the observation-only contract (bit-identical
// results with forensics on or off, Detection only with it on), the
// fixed-seed stability of the detection metrics, and the bounded-heap
// contract on a production-scale population.

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// forensicsCfg is the satellite fixture: REFD against scattered 1%
// attackers on a virtual population, sized so the fixed-seed run selects
// attackers while staying test-fast.
func forensicsCfg() Config {
	cfg := tinyCfg("minmax", "refd")
	cfg.TotalClients = 2000
	cfg.PerRound = 60
	cfg.AttackerFrac = 0.01
	cfg.Population = "virtual"
	cfg.Placement = "scatter"
	cfg.Forensics = true
	return cfg
}

// TestForensicsRunKeyInvariant pins the store contract for forensics: it
// decides whether the outcome carries Detection, so it is part of the run's
// identity — in one store a forensics-on cell runs and reports Detection
// instead of replaying its forensics-off twin's record — while journaling
// that cell's audit through a Watch stores it under its unwatched key.
func TestForensicsRunKeyInvariant(t *testing.T) {
	off := tinyCfg("lie", "mkrum")
	on := off
	on.Forensics = true
	store, err := OpenStore(filepath.Join(t.TempDir(), "run.jsonl"), "")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r := NewRunner()
	r.Store = store
	for _, cfg := range []Config{off, on} {
		outs, err := r.RunGrid([]Config{cfg}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := outs[0].Detection != nil; got != cfg.Forensics {
			t.Fatalf("Forensics=%v cell: Detection present %v", cfg.Forensics, got)
		}
	}

	assertWatchKeepsIdentity(t, on,
		Watch{AuditPath: filepath.Join(t.TempDir(), "audit.jsonl")}, on)
}

func TestForensicsConfigValidation(t *testing.T) {
	// An audit path makes the watched run audited, and says so in its
	// outcome — but is never normalized into the run's Config.
	auditPath := filepath.Join(t.TempDir(), "x.jsonl")
	out := runWatched(t, tinyCfg("lie", "mkrum"), Watch{AuditPath: auditPath})
	if out.Detection == nil {
		t.Fatal("AuditPath should make the watched run audited")
	}
	if out.Config.Forensics {
		t.Fatal("the watch leaked into the run's Config")
	}
	if fi, err := os.Stat(auditPath); err != nil || fi.Size() == 0 {
		t.Fatalf("audit journal missing or empty: %v", err)
	}
}

// TestForensicsOnOffBitIdentical is the satellite's purity half: enabling
// forensics must leave DPR, accuracies and the whole participation trace
// bit-identical to the forensics-off run.
func TestForensicsOnOffBitIdentical(t *testing.T) {
	on := forensicsCfg()
	off := forensicsCfg()
	off.Forensics = false

	a, err := Run(on)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxAcc != b.MaxAcc || a.FinalAcc != b.FinalAcc || a.DPR != b.DPR {
		t.Fatalf("forensics changed results: acc %v/%v vs %v/%v, DPR %v vs %v",
			a.MaxAcc, a.FinalAcc, b.MaxAcc, b.FinalAcc, a.DPR, b.DPR)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatal("trace lengths differ")
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("round %d trace differs: %+v vs %+v", i, a.Trace[i], b.Trace[i])
		}
	}
	if a.Detection == nil {
		t.Fatal("forensics-on run carries no detection summary")
	}
	if b.Detection != nil {
		t.Fatal("forensics-off run carries a detection summary")
	}
}

// TestForensicsAUCStableAcrossRuns is the satellite's stability half: the
// fixed-seed REFD/scattered-1% cell must reproduce its entire detection
// summary — AUC included — bit-identically across runs.
func TestForensicsAUCStableAcrossRuns(t *testing.T) {
	a, err := Run(forensicsCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(forensicsCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.Detection == nil || b.Detection == nil {
		t.Fatal("missing detection summaries")
	}
	if a.Detection.MaliciousSeen == 0 {
		t.Fatal("fixture never selected an attacker; detection metrics are vacuous")
	}
	if a.Detection.ScoreName != "dscore" {
		t.Fatalf("score name %q, want dscore", a.Detection.ScoreName)
	}
	if *a.Detection != *b.Detection {
		t.Fatalf("detection summary not stable across runs:\n%+v\n%+v", *a.Detection, *b.Detection)
	}
	if a.Detection.AUC != a.Detection.AUC { // NaN check without importing math
		t.Fatal("AUC undefined despite malicious and benign scores")
	}
}

// TestForensicsHierarchicalReconciles runs the two-tier topology with the
// audit attached: the composed Selection (group-local accepts mapped back
// through the server tier's group keeps) must reconcile with the engine's
// DPR accounting, and every audit record must carry a group attribution.
func TestForensicsHierarchicalReconciles(t *testing.T) {
	cfg := forensicsCfg()
	cfg.Groups = 2
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := out.Detection
	if d == nil {
		t.Fatal("no detection summary")
	}
	passed, submitted := 0, 0
	for _, rs := range out.Trace {
		if rs.PassedMalicious > 0 {
			passed += rs.PassedMalicious
		}
		submitted += rs.SelectedMalicious
	}
	if d.Confusion.FN != passed {
		t.Fatalf("hierarchical audit FN %d != trace passed-malicious %d", d.Confusion.FN, passed)
	}
	if got := d.Confusion.TP + d.Confusion.FN; got != submitted {
		t.Fatalf("hierarchical audit TP+FN %d != selected-malicious %d", got, submitted)
	}
	if d.MaliciousSeen == 0 {
		t.Fatal("fixture never selected an attacker")
	}
}

// TestDetectionStoreRoundTrip pins the journal shape: a stored outcome's
// detection summary survives encode/decode bit-exactly, NaN rates
// included.
func TestDetectionStoreRoundTrip(t *testing.T) {
	out, err := Run(forensicsCfg())
	if err != nil {
		t.Fatal(err)
	}
	if out.Detection == nil {
		t.Fatal("no detection summary")
	}
	dec := decodeOutcome(encodeOutcome(out))
	if dec.Detection == nil {
		t.Fatal("detection summary lost in the store round trip")
	}
	if *dec.Detection != *out.Detection {
		t.Fatalf("detection round trip drifted:\n%+v\n%+v", *out.Detection, *dec.Detection)
	}
}

// TestForensicsHeapBounded100k is the acceptance bound: a forensics-on
// detection cell over a 100k-client lazy population must stay within the
// population subsystem's heap envelope — the ring and reservoir are the
// only forensic state, and both are capped.
func TestForensicsHeapBounded100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-client run in -short mode")
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	cfg := forensicsCfg()
	cfg.TotalClients = 100000
	cfg.PerRound = 50
	cfg.Rounds = 2
	before := heap()
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	growth := int64(heap()) - int64(before)
	const bound = 32 << 20
	if growth > bound {
		t.Fatalf("heap grew %d bytes over a forensics-on 100k-client run, bound %d", growth, bound)
	}
	if out.Detection == nil || out.Detection.Aggregations != cfg.Rounds {
		t.Fatalf("detection summary incomplete: %+v", out.Detection)
	}
}
