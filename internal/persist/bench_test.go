package persist

import (
	"fmt"
	"path/filepath"
	"testing"
)

// The lease substrate is pure file I/O and flock round-trips — latency-bound
// coordination overhead, not compute. These benchmarks price the per-cell
// cost a distributed sweep pays on top of the science: one claim + release
// per cell, one Update transaction per recorded result, and the incremental
// replay a worker performs to adopt other workers' results.

func benchJournal(b *testing.B) *SharedJournal {
	b.Helper()
	j, err := OpenShared(filepath.Join(b.TempDir(), "bench.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = j.Close() })
	return j
}

type benchPayload struct {
	Cell  string  `json:"cell"`
	Value float64 `json:"value"`
}

// BenchmarkSharedUpdateAppend is the cost of recording one result cell: an
// EX-locked transaction that replays the tail, checks for a duplicate and
// appends one JSONL line with fsync semantics shared with the legacy
// journal.
func BenchmarkSharedUpdateAppend(b *testing.B) {
	j := benchJournal(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("cell-%d", i)
		err := j.Update(func(tx *Tx) error {
			var existing benchPayload
			if ok, err := tx.Lookup(key, &existing); err != nil || ok {
				return err
			}
			return tx.Append(key, benchPayload{Cell: key, Value: float64(i)})
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeaseClaimRelease is the per-cell coordination overhead of the
// distributed sweep: claim the lease, release it. Two EX-locked
// transactions, two appended lease records.
func BenchmarkLeaseClaimRelease(b *testing.B) {
	j := benchJournal(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("cell-%d", i)
		lease, err := j.TryClaim(key, "bench-owner", 0)
		if err != nil {
			b.Fatal(err)
		}
		if !lease.Held {
			b.Fatal("uncontended claim lost")
		}
		if err := j.Release(key, "bench-owner"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSharedRefresh prices the incremental tail replay a polling worker
// performs per scheduler pass over a store that is not growing — the steady
// state of a worker waiting on foreign leases.
func BenchmarkSharedRefresh(b *testing.B) {
	j := benchJournal(b)
	for i := 0; i < 512; i++ {
		if err := j.append(fmt.Sprintf("cell-%d", i), benchPayload{Value: float64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenSharedReplay prices a worker's cold start against a store
// another fleet already filled: open, full replay of 512 result lines plus
// their lease records, close.
func BenchmarkOpenSharedReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.jsonl")
	seed, err := OpenShared(path)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		key := fmt.Sprintf("cell-%d", i)
		if _, err := seed.TryClaim(key, "seed", 0); err != nil {
			b.Fatal(err)
		}
		if err := seed.append(key, benchPayload{Value: float64(i)}); err != nil {
			b.Fatal(err)
		}
		if err := seed.Release(key, "seed"); err != nil {
			b.Fatal(err)
		}
	}
	if err := seed.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := OpenShared(path)
		if err != nil {
			b.Fatal(err)
		}
		if j.len() == 0 {
			b.Fatal("replay found nothing")
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
