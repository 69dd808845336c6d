package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/tensor"
)

// splitDigest is the first 16 hex digits of SHA-256 over, per sample, the
// label, the three shape ints and the pixels' Float64bits, all 64-bit
// little-endian.
func splitDigest(d *Dataset) string {
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for i, img := range d.Images {
		put(uint64(d.Labels[i]))
		for _, s := range img.Shape {
			put(uint64(s))
		}
		for _, v := range img.Data {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestGenerateGolden pins every byte Generate produces, per spec and seed,
// to the digests of the generator as it stood before its test split moved
// to a helper slot and renderSample lost its per-pixel modulo: every cell
// of every experiment starts from these bytes. The digests must hold with
// the test split rendered beside the train split and after it.
func TestGenerateGolden(t *testing.T) {
	golden := []struct {
		spec        Spec
		seed        int64
		train, test string
	}{
		{FashionSpec(), 1, "00b978ec29fa750b", "0a5e1c45ecd89318"},
		{FashionSpec(), 7, "743134072f69fb1a", "8a79a827adff121d"},
		{FashionSpec(), 1234567, "048786ec5891faca", "c4e27c19fb3954b7"},
		{CIFARSpec(), 1, "97790e9f4ec207dc", "c45571833b84efb7"},
		{CIFARSpec(), 7, "4e316ecd6ccb8530", "a8fde9b25eb7a1d6"},
		{CIFARSpec(), 1234567, "a7bdf6033de0b0d5", "6da9194931c57809"},
		{SVHNSpec(), 1, "8aaeae4a943ab79c", "354907a10316dd25"},
		{SVHNSpec(), 7, "9811ec68364578ad", "74434a59f5797f6e"},
		{SVHNSpec(), 1234567, "8c94a842f31c7a22", "a7dd218de950320d"},
		{TinySpec(), 1, "27ec57aa9c3c7cbe", "bc7457f33973498c"},
		{TinySpec(), 7, "35bbd3e46e155dc0", "706f1ae600d62e53"},
		{TinySpec(), 1234567, "1dba4c55994d6539", "26a5d565523ad226"},
	}
	defer tensor.SetWorkers(0)
	for _, g := range golden {
		widths := []int{2}
		if g.seed == 1 {
			widths = []int{2, 1} // one seed per spec also renders the splits in turn
		}
		for _, workers := range widths {
			tensor.SetWorkers(workers)
			train, test := Generate(g.spec, g.seed)
			if got := splitDigest(train); got != g.train {
				t.Errorf("%s seed %d workers %d: train digest %s, want %s", g.spec.Name, g.seed, workers, got, g.train)
			}
			if got := splitDigest(test); got != g.test {
				t.Errorf("%s seed %d workers %d: test digest %s, want %s", g.spec.Name, g.seed, workers, got, g.test)
			}
		}
	}
}
