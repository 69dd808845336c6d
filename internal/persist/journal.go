package persist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// The journal format: one JSON object per line, each carrying a
// caller-chosen key and an opaque payload; later lines win on duplicate
// keys. It is crash-tolerant by construction — a process killed mid-append
// leaves at most one damaged final line — and every reader of it (the
// write-only Journal stream, the SharedJournal behind the run store, and
// ReadEntries) splits the bytes with the one scanner below, so all three
// agree on what a file holds. A checkpoint file is one such line.

// journalLine is the on-disk shape of one entry.
type journalLine struct {
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
}

// scanResult is scanLines' verdict on a journal's bytes.
type scanResult struct {
	// end is the offset just past the last intact newline-terminated line.
	end int64
	// size is the offset where the bytes ran out.
	size int64
	// open marks [end, size) as one intact entry that lost only its
	// newline: it was reported, and recovery terminates it in place.
	open bool
	// torn marks [end, size) as a damaged final line — the tail of a
	// crash mid-append — which recovery truncates away.
	torn bool
}

// scanLines reads journal lines from r, whose first byte sits at file
// offset from, and hands every intact entry to fn in file order. Empty
// lines are skipped. A line that is not a JSON object with a non-empty key
// is damage: as the final line of the file it is a torn tail (reported in
// the result, never an error); followed by any further byte it is mid-file
// corruption, which no reader may silently skip.
func scanLines(r io.Reader, from int64, fn func(Entry)) (scanResult, error) {
	rd := bufio.NewReaderSize(r, 64<<10)
	res := scanResult{end: from, size: from}
	for {
		raw, err := rd.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return res, fmt.Errorf("persist: journal read: %w", err)
		}
		if len(raw) == 0 {
			return res, nil
		}
		if res.torn {
			return res, fmt.Errorf("persist: journal corrupt at offset %d", res.end)
		}
		res.size += int64(len(raw))
		line, complete := bytes.CutSuffix(raw, []byte{'\n'})
		if len(line) > 0 {
			var jl journalLine
			if json.Unmarshal(line, &jl) != nil || jl.Key == "" {
				res.torn = true
				continue
			}
			fn(Entry{Key: jl.Key, Payload: jl.Payload})
		}
		if !complete {
			res.open = true
			return res, nil
		}
		res.end = res.size
	}
}

// repair makes the scanned tail of f a clean line boundary — a torn line is
// truncated away, an open entry gets its newline — and returns the offset
// the next append starts at. Only the file's writer may call it.
func (res scanResult) repair(f *os.File) (int64, error) {
	switch {
	case res.torn:
		if err := f.Truncate(res.end); err != nil {
			return 0, fmt.Errorf("persist: journal truncate: %w", err)
		}
	case res.open:
		if _, err := f.WriteAt([]byte{'\n'}, res.size); err != nil {
			return 0, fmt.Errorf("persist: journal terminate: %w", err)
		}
		return res.size + 1, nil
	}
	return res.end, nil
}

// Journal is the write-only journal stream behind the forensics audit and
// trace journals: appends are not individually synced (one fsync at Close)
// and nothing is retained in memory, so an unbounded stream costs O(1)
// memory and no fsync stalls. A torn tail on power loss is exactly the
// damage the next open repairs. Read a stream back with ReadEntries.
type Journal struct {
	mu sync.Mutex
	f  *os.File
	// off is the write offset after the last intact line; a failed append
	// truncates back to it so partial bytes never precede later entries.
	off int64
	// unlock releases the single-owner lock taken at open.
	unlock func()
}

// OpenJournalStream opens (creating if needed) the journal stream at path,
// repairs a torn tail and positions appends after the last intact line.
func OpenJournalStream(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open journal: %w", err)
	}
	// Two writers interleaving lines at overlapping offsets would corrupt
	// the stream mid-file (unrecoverable, unlike a torn tail), so it is
	// single-owner: the lock is held until Close.
	unlock, err := lockJournal(path, f)
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("persist: journal %s is in use by another process: %w", path, err)
	}
	j := &Journal{f: f, unlock: unlock}
	res, err := scanLines(f, 0, func(Entry) {})
	if err == nil {
		j.off, err = res.repair(f)
	}
	if err != nil {
		unlock()
		_ = f.Close()
		return nil, fmt.Errorf("persist: journal %s: %w", path, err)
	}
	return j, nil
}

// Append writes payload under key after the last intact line.
func (j *Journal) Append(key string, payload any) error {
	line, err := marshalLine(key, payload)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("persist: journal closed")
	}
	if _, err := j.f.WriteAt(line, j.off); err != nil {
		// Roll back any partial bytes: a later successful append must land
		// on a clean line boundary, or a reader would see unrecoverable
		// mid-file corruption instead of a torn (recoverable) tail.
		_ = j.f.Truncate(j.off)
		return fmt.Errorf("persist: journal write: %w", err)
	}
	j.off += int64(len(line))
	return nil
}

// marshalLine encodes one newline-terminated journal line.
func marshalLine(key string, payload any) ([]byte, error) {
	if key == "" {
		return nil, errors.New("persist: journal key must not be empty")
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("persist: journal payload: %w", err)
	}
	line, err := json.Marshal(journalLine{Key: key, Payload: raw})
	if err != nil {
		return nil, fmt.Errorf("persist: journal line: %w", err)
	}
	return append(line, '\n'), nil
}

// Close syncs the stream and releases the lock and the file. Further
// Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	j.unlock()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
