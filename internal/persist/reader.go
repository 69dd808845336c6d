package persist

import (
	"encoding/json"
	"fmt"
	"os"
)

// Entry is one journal line as seen by a read-only consumer.
type Entry struct {
	Key     string
	Payload json.RawMessage
}

// ReadEntries loads every intact line of the journal at path without
// taking any lock or mutating the file: the read-only view a replay or
// dashboard service needs over a journal some past (or even live) run
// produced. Lines appear in file order — for duplicate keys the caller sees
// every version, unlike the last-wins view of a SharedJournal — and the
// tail verdict is the writers' own: a torn final line is skipped, an intact
// one that lost only its newline is kept, and corruption followed by more
// data is an error.
func ReadEntries(path string) ([]Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("persist: read journal: %w", err)
	}
	defer f.Close()
	var out []Entry
	if _, err := scanLines(f, 0, func(e Entry) { out = append(out, e) }); err != nil {
		return nil, fmt.Errorf("persist: journal %s: %w", path, err)
	}
	return out, nil
}
