package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzJournalRecover throws arbitrary bytes at the journal's crash-recovery
// path and checks the durability contract survives them. The three readers
// of the format — ReadEntries, the keyed shared journal and the stream —
// must reach one verdict on the same bytes, and the shared view must hold
// exactly the keys ReadEntries returns. When a writer accepts a file it
// must be writable, and the file it leaves behind must read back with every
// entry it accepted plus the appended probe: whatever damage open
// tolerated, the writer repaired — recovery is idempotent, never
// compounding.
func FuzzJournalRecover(f *testing.F) {
	line := func(key, payload string) []byte {
		return []byte(`{"key":"` + key + `","payload":` + payload + `}` + "\n")
	}
	valid := line("a", `{"x":1}`)
	f.Add([]byte{})
	f.Add([]byte("\n\n"))
	f.Add(valid)
	f.Add(bytes.Join([][]byte{line("a", `{"x":1}`), line("a", `{"x":2}`)}, nil))
	// Torn tail: crash mid-append after one good line.
	f.Add(append(append([]byte{}, valid...), []byte(`{"key":"b","pa`)...))
	// Tear that ate exactly the trailing newline.
	f.Add(bytes.TrimSuffix(valid, []byte("\n")))
	// Newline-terminated garbage as the final line.
	f.Add(append(append([]byte{}, valid...), []byte("garbage\n")...))
	// A NUL-filled tail (a file extended past its last write).
	f.Add(append(append([]byte{}, valid...), make([]byte, 16)...))
	// Mid-file corruption: damage followed by more data (must error, not repair).
	f.Add(append([]byte("garbage\n"), valid...))
	// Entry with an empty key (corrupt by contract).
	f.Add(line("", `{}`))

	type probe struct {
		N int `json:"n"`
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		write := func(name string) string {
			p := filepath.Join(dir, name)
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return p
		}
		keysOf := func(path string) []string {
			t.Helper()
			entries, err := ReadEntries(path)
			if err != nil {
				t.Fatalf("read back after repair + append: %v", err)
			}
			keys := make([]string, len(entries))
			for i, e := range entries {
				keys[i] = e.Key
			}
			return keys
		}

		entries, rerr := ReadEntries(write("read.jsonl"))
		sharedPath := write("shared.jsonl")
		s, serr := OpenShared(sharedPath)
		streamPath := write("stream.jsonl")
		j, jerr := OpenJournalStream(streamPath)
		if (rerr == nil) != (serr == nil) || (rerr == nil) != (jerr == nil) {
			t.Fatalf("readers disagree: ReadEntries %v, OpenShared %v, OpenJournalStream %v", rerr, serr, jerr)
		}
		if rerr != nil {
			return // rejected as unrecoverable by all three: a legal verdict
		}
		accepted := make([]string, len(entries))
		for i, e := range entries {
			accepted[i] = e.Key
		}
		distinct := slices.Clone(accepted)
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		view := s.Keys()
		slices.Sort(view)
		if !slices.Equal(view, distinct) {
			t.Fatalf("shared view %q, ReadEntries keys %q", view, distinct)
		}
		want := append(accepted, "__fuzz_probe__")

		// The keyed half: append, reopen, find the probe.
		if err := s.append("__fuzz_probe__", probe{N: 42}); err != nil {
			t.Fatalf("shared append after successful open: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("shared close: %v", err)
		}
		if got := keysOf(sharedPath); !slices.Equal(got, want) {
			t.Fatalf("shared journal after repair: keys %q, want %q", got, want)
		}
		re, err := OpenShared(sharedPath)
		if err != nil {
			t.Fatalf("reopen after recovery+append: %v", err)
		}
		defer re.Close()
		var got probe
		if found, err := re.Lookup("__fuzz_probe__", &got); err != nil || !found || got.N != 42 {
			t.Fatalf("probe after reopen: found=%v err=%v got=%+v", found, err, got)
		}

		// The stream half: append, close, read back.
		if err := j.Append("__fuzz_probe__", probe{N: 42}); err != nil {
			t.Fatalf("stream append after successful open: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("stream close: %v", err)
		}
		if got := keysOf(streamPath); !slices.Equal(got, want) {
			t.Fatalf("stream after repair: keys %q, want %q", got, want)
		}
	})
}

// FuzzCheckpointLoad throws arbitrary bytes at LoadFile. It never panics:
// the bytes either error, or load a checkpoint that Save writes back and
// LoadFile reads again bit for bit — a loaded checkpoint is always one the
// format can hold.
func FuzzCheckpointLoad(f *testing.F) {
	dir := f.TempDir()
	good := filepath.Join(dir, "seed.ckpt")
	if err := Save(good, sample()); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(good)
	if err != nil {
		f.Fatal(err)
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "v1.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(v1)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.TrimSuffix(valid, []byte("\n")))
	f.Add(append(append([]byte{}, valid...), valid...))
	f.Add([]byte(`{"key":"flckpt/v2","payload":{"weights":"AAAAAAAA+H8=","prev":null,"accuracy":null,"round":-3}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadFile(path)
		if err != nil {
			return
		}
		again := filepath.Join(dir, "again.ckpt")
		if err := Save(again, cp); err != nil {
			t.Fatalf("a loaded checkpoint does not save: %v", err)
		}
		re, err := LoadFile(again)
		if err != nil {
			t.Fatalf("a re-saved checkpoint does not load: %v", err)
		}
		if !sameCheckpoint(re, cp) {
			t.Fatalf("re-saved checkpoint %+v, loaded %+v", re, cp)
		}
	})
}
