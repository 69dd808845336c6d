package persist

import (
	"encoding/json"
	"math"
	"testing"
)

// TestFloatFiniteBytes: a finite Float writes exactly the bytes
// encoding/json writes for the float64, across the format switches of its
// float encoder (−0, subnormals, the 1e-6 and 1e21 exponent thresholds and
// the largest value).
func TestFloatFiniteBytes(t *testing.T) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 0.1, 1, -2.5,
		1e20, 1e21, -1e21, math.MaxFloat64, -math.MaxFloat64,
	} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(Float(v))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("Float(%g) writes %s, float64 %s", v, got, want)
		}
		var back Float
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(float64(back)) != math.Float64bits(v) {
			t.Errorf("%s reads back as %g, want %g", got, back, v)
		}
	}
}

// TestFloatNonFiniteIsNull: NaN and ±Inf write null, and null reads back
// as NaN, in a field, a slice and a slice of slices.
func TestFloatNonFiniteIsNull(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got, err := json.Marshal(Float(v))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "null" {
			t.Errorf("Float(%g) writes %s, want null", v, got)
		}
	}
	var rec struct {
		F  Float     `json:"f"`
		S  []Float   `json:"s"`
		SS [][]Float `json:"ss"`
	}
	if err := json.Unmarshal([]byte(`{"f":null,"s":[1,null],"ss":[[null],[2]]}`), &rec); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(rec.F)) || rec.S[0] != 1 || !math.IsNaN(float64(rec.S[1])) ||
		!math.IsNaN(float64(rec.SS[0][0])) || rec.SS[1][0] != 2 {
		t.Fatalf("null did not read back as NaN: %+v", rec)
	}
	if err := json.Unmarshal([]byte(`{"f":"1"}`), &rec); err == nil {
		t.Fatal("a string read into a Float")
	}
}

// TestFloatAbsentKeyIsZero pins what a record missing a Float key decodes
// to: the field's zero value, as for any other field, not NaN. No writer in
// the module omits a Float key, so only a hand-edited record can miss one.
func TestFloatAbsentKeyIsZero(t *testing.T) {
	var rec struct {
		F Float `json:"f"`
	}
	if err := json.Unmarshal([]byte(`{}`), &rec); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(float64(rec.F)) != 0 {
		t.Fatalf("absent key decodes to %g, want 0", rec.F)
	}
}
