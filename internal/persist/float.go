package persist

import (
	"encoding/json"
	"math"
)

// Float is a float64 metric of a JSON record. The paper's metrics use NaN
// for "not applicable" (DPR under a defense that does not select, a round
// that evaluated nothing), which encoding/json refuses to write, so a Float
// that is not finite marshals to null, and null unmarshals to NaN. A finite
// Float marshals to exactly the bytes encoding/json writes for the float64.
// A Float key absent from a record decodes to 0, like any other field; no
// writer in this module omits one.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = Float(math.NaN())
		return nil
	}
	return json.Unmarshal(b, (*float64)(f))
}
