package persist

// Read-only journal view tests: file-order iteration with every duplicate
// version preserved, torn-tail tolerance, and the mid-file-corruption
// rejection that keeps a dashboard replay from silently skipping history.

import (
	"os"
	"path/filepath"
	"testing"
)

func TestReadEntriesFileOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournalStream(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range []struct {
		k string
		v int
	}{{"a", 1}, {"b", 2}, {"a", 3}} {
		if err := j.Append(kv.k, kv.v); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadEntries(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("read %d entries, want 3 (duplicates preserved, unlike the last-wins shared view)", len(entries))
	}
	wantKeys := []string{"a", "b", "a"}
	wantPayloads := []string{"1", "2", "3"}
	for i, e := range entries {
		if e.Key != wantKeys[i] || string(e.Payload) != wantPayloads[i] {
			t.Fatalf("entry %d = %s:%s, want %s:%s", i, e.Key, e.Payload, wantKeys[i], wantPayloads[i])
		}
	}
}

func TestReadEntriesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	data := `{"key":"a","payload":1}` + "\n" + `{"key":"b","pay`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadEntries(path)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if len(entries) != 1 || entries[0].Key != "a" {
		t.Fatalf("entries = %+v, want just a", entries)
	}
}

func TestReadEntriesMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	data := `{"key":"a","payload":1}` + "\n" + `garbage` + "\n" + `{"key":"b","payload":2}` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEntries(path); err == nil {
		t.Fatal("corruption followed by more data must be an error, not a skip")
	}
}

func TestReadEntriesMissingFile(t *testing.T) {
	if _, err := ReadEntries(filepath.Join(t.TempDir(), "nope.jsonl")); err == nil {
		t.Fatal("missing journal should error")
	}
}
