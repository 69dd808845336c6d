package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

type payload struct {
	Attack string   `json:"attack"`
	Acc    *float64 `json:"acc"`
}

func TestJournalAppendLookupReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := OpenShared(path)
	if err != nil {
		t.Fatal(err)
	}
	acc := 0.63
	if err := j.Append("a", payload{Attack: "lie", Acc: &acc}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("b", payload{Attack: "fang"}); err != nil {
		t.Fatal(err)
	}
	// Later writes win on duplicate keys.
	if err := j.Append("a", payload{Attack: "minmax", Acc: &acc}); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Fatalf("journal has %d keys, want 2", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("c", payload{}); err == nil {
		t.Fatal("append after close must fail")
	}

	re, err := OpenShared(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 2 {
		t.Fatalf("reopened journal has %d keys, want 2", re.Len())
	}
	var p payload
	ok, err := re.Lookup("a", &p)
	if err != nil || !ok {
		t.Fatalf("lookup a: ok=%v err=%v", ok, err)
	}
	if p.Attack != "minmax" || p.Acc == nil || *p.Acc != acc {
		t.Fatalf("last write should win: %+v", p)
	}
	if ok, _ := re.Lookup("zzz", &p); ok {
		t.Fatal("missing key should not resolve")
	}
	if got := re.Keys(); len(got) != 2 {
		t.Fatalf("Keys() returned %v", got)
	}
}

// TestJournalTornFinalLine: a crash mid-append leaves a truncated last
// line; reopening must drop it and keep every intact entry.
func TestJournalTornFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	data := `{"key":"a","payload":{"attack":"lie"}}` + "\n" + `{"key":"b","payload":{"attack":"fang"}}` + "\n" + `{"key":"c","payl`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenShared(path)
	if err != nil {
		t.Fatalf("torn final line must be tolerated: %v", err)
	}
	if re.Len() != 2 {
		t.Fatalf("recovered %d entries, want 2", re.Len())
	}
	// The journal must stay appendable on a clean line boundary.
	if err := re.Append("c", payload{Attack: "minsum"}); err != nil {
		t.Fatal(err)
	}
	re.Close()

	re2, err := OpenShared(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Len() != 3 {
		t.Fatalf("post-recovery journal has %d entries, want 3", re2.Len())
	}
	var p payload
	if ok, _ := re2.Lookup("c", &p); !ok || p.Attack != "minsum" {
		t.Fatalf("entry appended after recovery lost: %+v", p)
	}
}

// TestJournalCorruptMiddleLine: damage that is not a torn tail is real
// corruption and must surface as an error, not silent data loss.
func TestJournalCorruptMiddleLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte("not json\n{\"key\":\"a\",\"payload\":{}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShared(path); err == nil {
		t.Fatal("corrupt middle line must be an error")
	}
	if _, err := OpenJournalStream(path); err == nil {
		t.Fatal("corrupt middle line must be an error for the stream too")
	}
}

// TestJournalExclusiveLock: the stream is single-owner; a second opener
// in the same process family must be rejected while the first holds it.
func TestJournalExclusiveLock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := OpenJournalStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournalStream(path); err == nil {
		t.Fatal("second concurrent opener must be rejected")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenJournalStream(path)
	if err != nil {
		t.Fatalf("reopen after close must succeed: %v", err)
	}
	re.Close()
}

func TestJournalEmptyKeyRejected(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournalStream(filepath.Join(dir, "audit.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append("", payload{}); err == nil {
		t.Fatal("empty key must be rejected by the stream")
	}
	s, err := OpenShared(filepath.Join(dir, "run.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append("", payload{}); err == nil {
		t.Fatal("empty key must be rejected by the shared journal")
	}
}

// TestJournalConcurrentAppend: grid workers append concurrently; every
// entry must survive.
func TestJournalConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := OpenShared(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := string(rune('a' + i))
			if err := j.Append(key, payload{Attack: key}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	j.Close()

	re, err := OpenShared(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 16 {
		t.Fatalf("concurrent journal has %d entries, want 16", re.Len())
	}
}

// TestJournalStreamMode pins the audit stream: the on-disk format is the
// one every reader scans — ReadEntries sees every line back — and reopening
// a stream appends after the existing tail.
func TestJournalStreamMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	j, err := OpenJournalStream(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(string(rune('a'+i)), payload{Attack: fmt.Sprintf("x%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("z", payload{}); err == nil {
		t.Fatal("append after close must fail")
	}

	j2, err := OpenJournalStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append("f", payload{Attack: "y"}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := ReadEntries(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 6 {
		t.Fatalf("reader sees %d entries, want 6", len(entries))
	}
	if e := entries[2]; e.Key != "c" || string(e.Payload) != `{"attack":"x2","acc":null}` {
		t.Fatalf("entry 2 = %s:%s", e.Key, e.Payload)
	}
	if e := entries[5]; e.Key != "f" {
		t.Fatalf("reopened stream did not append after the tail: last key %q", e.Key)
	}
}

// TestJournalTailRule runs every tail shape a crash (or a lying disk) can
// leave through all three readers of the format — the stream's open, the
// shared journal's replay and ReadEntries — and requires one verdict and
// one set of entries from all of them. An accepted file must also come out
// of its writer's repair as a clean boundary: the probe appended after it
// is the next line and nothing is lost.
func TestJournalTailRule(t *testing.T) {
	valid := `{"key":"a","payload":1}` + "\n"
	for _, tc := range []struct {
		name    string
		data    string
		keys    []string // nil with corrupt
		corrupt bool
	}{
		{name: "clean", data: valid, keys: []string{"a"}},
		{name: "torn prefix", data: valid + `{"key":"b","pa`, keys: []string{"a"}},
		{name: "newline-terminated garbage", data: valid + "garbage\n", keys: []string{"a"}},
		{name: "empty-key final line", data: valid + `{"key":"","payload":{}}` + "\n", keys: []string{"a"}},
		{name: "valid line missing its newline", data: valid + `{"key":"b","payload":2}`, keys: []string{"a", "b"}},
		{name: "NUL-filled tail", data: valid + "\x00\x00\x00\x00\x00\x00\x00\x00", keys: []string{"a"}},
		{name: "only a torn line", data: `{"key":"a"`, keys: []string{}},
		{name: "damage then data", data: "garbage\n" + valid, corrupt: true},
		{name: "damage then a bare newline", data: valid + "garbage\n\n", corrupt: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			write := func(name string) string {
				p := filepath.Join(dir, name)
				if err := os.WriteFile(p, []byte(tc.data), 0o644); err != nil {
					t.Fatal(err)
				}
				return p
			}
			keysOf := func(path string) []string {
				t.Helper()
				entries, err := ReadEntries(path)
				if err != nil {
					t.Fatalf("ReadEntries(%s): %v", filepath.Base(path), err)
				}
				keys := []string{}
				for _, e := range entries {
					keys = append(keys, e.Key)
				}
				return keys
			}
			probed := append(slices.Clone(tc.keys), "probe")

			// ReadEntries: the read-only verdict.
			entries, rerr := ReadEntries(write("read.jsonl"))
			if (rerr != nil) != tc.corrupt {
				t.Fatalf("ReadEntries err = %v, corrupt %v", rerr, tc.corrupt)
			}

			// The shared journal: same verdict, same view at open, and its
			// first write repairs the tail.
			sharedPath := write("shared.jsonl")
			s, serr := OpenShared(sharedPath)
			if (serr != nil) != tc.corrupt {
				t.Fatalf("OpenShared err = %v, corrupt %v", serr, tc.corrupt)
			}
			// The stream: same verdict, and its open repairs the tail.
			streamPath := write("stream.jsonl")
			j, jerr := OpenJournalStream(streamPath)
			if (jerr != nil) != tc.corrupt {
				t.Fatalf("OpenJournalStream err = %v, corrupt %v", jerr, tc.corrupt)
			}
			if tc.corrupt {
				return
			}
			got := []string{}
			for _, e := range entries {
				got = append(got, e.Key)
			}
			if !slices.Equal(got, tc.keys) {
				t.Fatalf("ReadEntries keys %v, want %v", got, tc.keys)
			}
			view := s.Keys()
			slices.Sort(view)
			if !slices.Equal(view, tc.keys) {
				t.Fatalf("OpenShared view %v, want %v", view, tc.keys)
			}
			if err := s.Append("probe", 1); err != nil {
				t.Fatal(err)
			}
			s.Close()
			if err := j.Append("probe", 1); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			for _, p := range []string{sharedPath, streamPath} {
				if k := keysOf(p); !slices.Equal(k, probed) {
					t.Fatalf("%s after repair + probe: keys %v, want %v", filepath.Base(p), k, probed)
				}
			}
			shared, _ := os.ReadFile(sharedPath)
			stream, _ := os.ReadFile(streamPath)
			if !bytes.Equal(shared, stream) || !bytes.HasSuffix(stream, []byte("\n")) {
				t.Fatalf("the two writers repaired differently:\nshared %q\nstream %q", shared, stream)
			}
		})
	}
}
