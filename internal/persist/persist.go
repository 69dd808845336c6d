// Package persist stores and restores global-model checkpoints and the
// append-only JSONL journal. The networked server can checkpoint the
// federation after every round, and a restarted server (or an offline
// evaluation tool) can resume from the saved state — the minimum durability
// a deployable FL server needs.
package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
)

// checkpointKey keys a checkpoint file's one journal line and names its
// format version. Version 1 was a gob stream; it is refused, not migrated.
const checkpointKey = "flckpt/v2"

// Resume is what a resumed round engine needs beyond the weights to
// continue as the uninterrupted run would. The engine takes it as one value
// (fl.Engine.Resume) and hands one to its per-round checkpoint hook.
type Resume struct {
	// Round is the last completed round; a resumed run starts at Round+1.
	Round int
	// Prev is w(t−1), the global before the last aggregation, of the
	// weights' length: the first resumed round hands clients the previous
	// global an uninterrupted run would, which DFA-R and DFA-G estimate the
	// benign direction from.
	Prev []float64
	// Accuracy is Round's evaluation accuracy (NaN when the run evaluates
	// nothing) and MaxAccuracy the best one up to Round, so a resumed run
	// reports the whole run's acc_m even when its peak predates the crash.
	Accuracy, MaxAccuracy float64
}

// Checkpoint is a durable snapshot of a federation after a round.
type Checkpoint struct {
	// Dataset, Model, Seed, MinClients and PerRound identify the run the
	// weights belong to. A loader compares every one with its own: other
	// weights would not fit or not train, and another seed or population
	// would replay the wrong client-selection stream.
	Dataset, Model       string
	Seed                 int64
	MinClients, PerRound int
	// Weights is the flat global weight vector after Round.
	Weights []float64
	Resume
}

// record is a checkpoint's payload on disk: its fields shadow the
// checkpoint's vectors and accuracies in encoding/json. Vectors are
// little-endian float64 bits, which encoding/json base64s, so every bit
// pattern (−0, subnormals, NaN payloads) survives; a NaN accuracy is null.
type record struct {
	Checkpoint
	Weights, Prev         []byte
	Accuracy, MaxAccuracy Float
}

// FormatError refuses a checkpoint file that holds no intact v2 record:
// foreign bytes, a torn or truncated write, or a version 1 (gob)
// checkpoint. Resuming from none of these is possible, and treating one as
// a fresh start would silently throw the recorded run away.
type FormatError struct {
	Path, Reason string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("persist: %s holds no intact %s checkpoint record: %s", e.Path, checkpointKey, e.Reason)
}

// Save writes the checkpoint as one journal line, atomically and durably:
// to a temporary file in the target's directory, synced, then renamed over
// the destination and the directory synced, so a crash mid-write never
// corrupts the previous checkpoint and a power loss after Save returns
// never brings it back. A directory that cannot be opened or synced is an
// error although the new checkpoint is already in place: the server stops
// the run rather than go on with a round it cannot promise to keep.
func Save(path string, cp *Checkpoint) error {
	if cp == nil || len(cp.Weights) == 0 {
		return errors.New("persist: checkpoint has no weights")
	}
	line, err := marshalLine(checkpointKey, record{*cp,
		floatBits(cp.Weights), floatBits(cp.Prev), Float(cp.Accuracy), Float(cp.MaxAccuracy)})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".flckpt-*")
	if err != nil {
		return fmt.Errorf("persist: temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer func() {
		_ = os.Remove(tmpName) // no-op after successful rename
	}()
	if _, err := tmp.Write(line); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("persist: write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("persist: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("persist: rename: %w", err)
	}
	// The rename is an entry of the directory: until the directory is
	// synced too, a power loss can bring the previous checkpoint back.
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("persist: open directory: %w", err)
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return fmt.Errorf("persist: sync directory: %w", err)
	}
	return nil
}

// LoadFile reads the checkpoint at path. A file that cannot be opened or
// read is an I/O error (fs.ErrNotExist for a missing one); a file that
// holds anything but exactly one intact v2 record is a *FormatError.
func LoadFile(path string) (*Checkpoint, error) {
	entries, err := ReadEntries(path)
	if err != nil {
		var ioErr *fs.PathError
		if errors.As(err, &ioErr) {
			return nil, err
		}
		return nil, &FormatError{Path: path, Reason: err.Error()}
	}
	if len(entries) != 1 || entries[0].Key != checkpointKey {
		return nil, &FormatError{Path: path, Reason: fmt.Sprintf("%d intact lines, want one keyed %q", len(entries), checkpointKey)}
	}
	var rec record
	dec := json.NewDecoder(bytes.NewReader(entries[0].Payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return nil, &FormatError{Path: path, Reason: err.Error()}
	}
	switch {
	case len(rec.Weights) == 0:
		return nil, &FormatError{Path: path, Reason: "no weights"}
	case len(rec.Weights)%8 != 0 || len(rec.Prev)%8 != 0:
		return nil, &FormatError{Path: path, Reason: "a vector is not a whole number of float64s"}
	}
	cp := rec.Checkpoint
	cp.Weights, cp.Prev = bitsFloat(rec.Weights), bitsFloat(rec.Prev)
	cp.Accuracy, cp.MaxAccuracy = float64(rec.Accuracy), float64(rec.MaxAccuracy)
	return &cp, nil
}

func floatBits(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

func bitsFloat(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}
