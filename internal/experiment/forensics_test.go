package experiment

// Forensics wiring tests: the observation-only contract (bit-identical
// results and run-store keys with forensics on or off), the fixed-seed
// stability of the detection metrics, and the bounded-heap contract on a
// production-scale population.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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

// TestForensicsRunKeyInvariant pins the store contract: forensics is pure
// observation, so a forensics-on cell — its three serializable axes set and
// its audit journaled through a Watch — is stored under the key of its
// forensics-off, unwatched twin, and a default config's JSON (what older
// stores hashed) does not mention the axes at all.
func TestForensicsRunKeyInvariant(t *testing.T) {
	on := tinyCfg("lie", "mkrum")
	on.Forensics = true
	on.ForensicsRing = 16
	on.ForensicsReservoir = 256
	assertWatchKeepsIdentity(t, on,
		Watch{AuditPath: filepath.Join(t.TempDir(), "audit.jsonl")},
		tinyCfg("lie", "mkrum"))

	legacy := tinyCfg("lie", "mkrum")
	if err := legacy.Normalize(); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "Forensics") {
		t.Errorf("legacy config JSON leaks a forensics field: %s", raw)
	}
}

func TestForensicsConfigValidation(t *testing.T) {
	cfg := tinyCfg("lie", "mkrum")
	cfg.ForensicsRing = 8 // without Forensics
	if err := cfg.Normalize(); err == nil {
		t.Fatal("ForensicsRing without Forensics should fail validation")
	}
	cfg = tinyCfg("lie", "mkrum")
	cfg.Forensics = true
	cfg.ForensicsReservoir = -1
	if err := cfg.Normalize(); err == nil {
		t.Fatal("negative reservoir should fail validation")
	}
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
