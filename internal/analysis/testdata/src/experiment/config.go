// Fixture for the runkey analyzer: a miniature experiment.Config with the
// frozen untagged legacy prefix, a correctly tagged axis, and one field
// violating each clause of the key-stability contract.
package experiment

// Extra exists only to exercise the embedded-field clause.
type Extra struct {
	Note string
}

type Config struct {
	// Untagged legacy prefix: frozen shape, never flagged.
	Dataset string
	Seed    int64
	Beta    float64

	// Correctly added axis: omitempty and canonicalized in Normalize.
	Partition string `json:",omitempty"`

	Rounds  int    // want `field Rounds extends experiment.Config without a json tag`
	Sampler string `json:"sampler"`    // want `serialized without omitempty`
	Ghost   string `json:",omitempty"` // want `not reachable from Normalize or cleanKey`
	hidden  int    // want `unexported field hidden`
	Extra          // want `embedded field in experiment.Config`

	// Never serialized: how a run is watched, not which run it is.
	AuditPath string `json:"-"` // want `does not identify a run`

	// Exempted violation (omitempty but unreachable from Normalize).
	Legacy string `json:",omitempty"` //lint:allow runkey fixture exercises the exemption path
}

func (c *Config) Normalize() error {
	if c.Partition == "" {
		c.Partition = "iid"
	}
	if c.Sampler == "" {
		c.Sampler = "uniform"
	}
	return nil
}

func (c Config) cleanKey() string { return c.Dataset }
