// Fixture for the nanjson analyzer: package name "report" puts it in the
// NaN-guard scope, so raw float fields reaching json.Marshal /
// MarshalIndent / (*json.Encoder).Encode must be flagged, while the guard
// idioms (*float64 fields, a MarshalJSON owner, a named float with a
// MarshalJSON) stay silent. Also hosts
// the reasonless-allow check: an exemption without a reason is itself a
// violation and exempts nothing.
package report

import (
	"encoding/json"
	"os"
	"strconv"
)

type Metrics struct {
	Name string
	Acc  float64
	Err  error `json:"-"`
}

type Guarded struct {
	Name string
	Acc  *float64
}

type Summary struct {
	Mean float64
}

func (s Summary) MarshalJSON() ([]byte, error) {
	m := map[string]*float64{}
	if s.Mean == s.Mean { // NaN guard: NaN != NaN
		m["mean"] = &s.Mean
	}
	return json.Marshal(m)
}

// NullFloat owns its NaN discipline the way persist.Float does: a named
// float with a MarshalJSON.
type NullFloat float64

func (f NullFloat) MarshalJSON() ([]byte, error) {
	if f != f {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, float64(f), 'g', -1, 64), nil
}

type Record struct {
	Acc      NullFloat
	Timeline []NullFloat
	Loss     [][]NullFloat
}

func writeRaw(m Metrics) ([]byte, error) {
	return json.Marshal(m) // want `unguarded float at Acc`
}

func writeSlice(ms []Metrics) error {
	enc := json.NewEncoder(os.Stdout)
	return enc.Encode(ms) // want `unguarded float at \[\]Acc`
}

func writeIndent(byName map[string]Metrics) ([]byte, error) {
	return json.MarshalIndent(byName, "", "  ") // want `unguarded float`
}

func writeNested(pairs []struct{ M Metrics }) ([]byte, error) {
	return json.Marshal(pairs) // want `unguarded float at \[\]M.Acc`
}

// writeGuarded uses the *float64 guard idiom; nothing to flag.
func writeGuarded(g Guarded) ([]byte, error) {
	return json.Marshal(g)
}

// writeSummary marshals a type that owns its NaN discipline.
func writeSummary(s Summary) ([]byte, error) {
	return json.Marshal(s)
}

// writeRecord marshals self-marshaling named floats as a field, a slice
// and a slice of slices; nothing to flag.
func writeRecord(r Record) ([]byte, error) {
	return json.Marshal(r)
}

// writeExempt demonstrates the //lint:allow escape hatch.
func writeExempt(m Metrics) ([]byte, error) {
	return json.Marshal(m) //lint:allow nanjson fixture exercises the exemption path
}

// writeReasonless shows that an allow comment without a reason exempts
// nothing and is itself reported.
func writeReasonless(m Metrics) ([]byte, error) {
	// want+1 `missing a reason`
	//lint:allow nanjson
	return json.Marshal(m) // want `unguarded float at Acc`
}
