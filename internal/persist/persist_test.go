package persist

import (
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func sample() *Checkpoint {
	return &Checkpoint{
		Dataset:    "fashion-sim",
		Model:      "fashion-cnn",
		Seed:       6,
		MinClients: 10,
		PerRound:   4,
		Weights:    []float64{0.5, -1.25, 3e-9, 42},
		Resume: Resume{
			Round:       7,
			Prev:        []float64{0.25, -1, 0, 41},
			Accuracy:    0.731,
			MaxAccuracy: 0.75,
		},
	}
}

// sameCheckpoint reports whether two checkpoints are equal bit for bit.
func sameCheckpoint(a, b *Checkpoint) bool {
	sameBits := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return a.Dataset == b.Dataset && a.Model == b.Model && a.Seed == b.Seed &&
		a.MinClients == b.MinClients && a.PerRound == b.PerRound && a.Round == b.Round &&
		sameBits(a.Weights, b.Weights) && sameBits(a.Prev, b.Prev) &&
		sameBits([]float64{a.Accuracy, a.MaxAccuracy}, []float64{b.Accuracy, b.MaxAccuracy})
}

// TestWriteReadRoundTrip: Save then LoadFile returns every field bit for
// bit, the float64 values JSON numbers cannot carry included: −0,
// subnormals, the extremes, NaN (with its payload) and ±Inf weights, and a
// NaN accuracy (a federation without a test set evaluates nothing).
func TestWriteReadRoundTrip(t *testing.T) {
	extremes := []float64{
		math.Copysign(0, -1), 5e-324, -2.2250738585072014e-308 / 3,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.NaN(), math.Float64frombits(0x7ff8_dead_beef_0001), math.Inf(1), math.Inf(-1),
	}
	nanAcc := sample()
	nanAcc.Accuracy = math.NaN()
	bits := sample()
	bits.Weights = extremes
	bits.Prev = append([]float64{1}, extremes[1:]...)
	for name, cp := range map[string]*Checkpoint{"sample": sample(), "nan-accuracy": nanAcc, "extremes": bits} {
		path := filepath.Join(t.TempDir(), "global.ckpt")
		if err := Save(path, cp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameCheckpoint(got, cp) {
			t.Fatalf("%s: loaded %+v, saved %+v", name, got, cp)
		}
	}
}

func TestWriteRejectsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "global.ckpt")
	if err := Save(path, nil); err == nil {
		t.Fatal("expected error for nil checkpoint")
	}
	if err := Save(path, &Checkpoint{Resume: Resume{Round: 1}}); err == nil {
		t.Fatal("expected error for empty weights")
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a refused Save left a file: %v", err)
	}
}

// wantFormatError loads path and requires the typed refusal.
func wantFormatError(t *testing.T, path string) {
	t.Helper()
	cp, err := LoadFile(path)
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("LoadFile = %+v, %v; want a *FormatError", cp, err)
	}
}

// TestReadRejectsGarbage: foreign bytes, a record that is not a complete
// checkpoint, and a record cut anywhere — the journal scanner's torn tail —
// are refused, not loaded and not taken for a fresh start. Save's rename
// never leaves a cut record; a disk or a copy can.
func TestReadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "global.ckpt")
	if err := Save(path, sample()); err != nil {
		t.Fatal(err)
	}
	record, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every cut but the one that drops only the newline, whose intact
	// record the scanner keeps.
	for n := 0; n < len(record)-1; n++ {
		cut := filepath.Join(dir, "cut.ckpt")
		if err := os.WriteFile(cut, record[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		wantFormatError(t, cut)
	}
	for name, data := range map[string]string{
		"empty":         "",
		"text":          "not a checkpoint",
		"json":          `{"key":"flckpt/v2","payload":[1,2]}` + "\n",
		"no-weights":    `{"key":"flckpt/v2","payload":{"round":1}}` + "\n",
		"ragged":        `{"key":"flckpt/v2","payload":{"weights":"AAAAAAAA8D8A"}}` + "\n",
		"unknown-field": `{"key":"flckpt/v2","payload":{"weights":"AAAAAAAA8D8=","momentum":"AAAAAAAA8D8="}}` + "\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		wantFormatError(t, path)
	}
}

// TestReadRejectsWrongMagic: only a v2 record loads. A version 1 file (a
// gob stream written by the previous format, kept under testdata) and a
// journal line under any other key are typed refusals — never a fresh
// start, never a silent load.
func TestReadRejectsWrongMagic(t *testing.T) {
	wantFormatError(t, filepath.Join("testdata", "v1.ckpt"))

	dir := t.TempDir()
	path := filepath.Join(dir, "global.ckpt")
	if err := Save(path, sample()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(dir, "v3.ckpt")
	if err := os.WriteFile(other, []byte(`{"key":"flckpt/v3"`+string(data[len(`{"key":"flckpt/v2"`):])), 0o644); err != nil {
		t.Fatal(err)
	}
	wantFormatError(t, other)
	twice := filepath.Join(dir, "twice.ckpt")
	if err := os.WriteFile(twice, append(append([]byte{}, data...), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	wantFormatError(t, twice)
}

func TestSaveLoadFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "global.ckpt")
	if err := Save(path, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 7 {
		t.Fatalf("round = %d", got.Round)
	}
	// Overwrite with a newer checkpoint: rename must replace atomically.
	newer := sample()
	newer.Round = 8
	if err := Save(path, newer); err != nil {
		t.Fatal(err)
	}
	got, err = LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 8 {
		t.Fatalf("after overwrite round = %d, want 8", got.Round)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "absent.ckpt")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: err %v, want fs.ErrNotExist", err)
	}
}

// TestGoldenCheckpoint: a v2 checkpoint with a NaN accuracy, written by an
// earlier build, loads with its NaN and saves back to identical bytes.
func TestGoldenCheckpoint(t *testing.T) {
	const golden = "testdata/golden_v2.ckpt"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := LoadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(cp.Accuracy) || cp.MaxAccuracy != 0.4375 {
		t.Fatalf("accuracies = %v, %v; want NaN, 0.4375", cp.Accuracy, cp.MaxAccuracy)
	}
	path := filepath.Join(t.TempDir(), "re.ckpt")
	if err := Save(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("re-encoded checkpoint differs:\n got %s\nwant %s", got, want)
	}
}
