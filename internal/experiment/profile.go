package experiment

// Profile scales the paper's experiments to a compute budget. The paper's
// absolute settings (20+ rounds on a GPU with |S| = 50) are reachable with
// the Full profile; Quick keeps every structural parameter (100 clients, 10
// per round, 20% attackers, Dirichlet heterogeneity) but shrinks the
// per-round synthesis work and the evaluation subset so the whole benchmark
// suite runs in minutes on a laptop.
type Profile struct {
	// Name labels the profile in outputs.
	Name string
	// Rounds is the number of federated rounds per run.
	Rounds int
	// EvalLimit caps test samples per evaluation.
	EvalLimit int
	// SampleCount is |S| for the DFA family.
	SampleCount int
	// SeedCount runs each grid config as this many cells, one per seed;
	// tables print the seeds' means (paper: 3).
	SeedCount int
}

// QuickProfile is the default: paper-shaped results in minutes.
func QuickProfile() Profile {
	return Profile{
		Name:        "quick",
		Rounds:      12,
		EvalLimit:   320,
		SampleCount: 20,
		SeedCount:   1,
	}
}

// FullProfile mirrors the paper's settings (3-seed averages, |S| = 50).
func FullProfile() Profile {
	return Profile{
		Name:        "full",
		Rounds:      25,
		EvalLimit:   0, // full test set
		SampleCount: 50,
		SeedCount:   3,
	}
}

// ProfileByName resolves "quick" or "full".
func ProfileByName(name string) (Profile, bool) {
	switch name {
	case "", "quick":
		return QuickProfile(), true
	case "full":
		return FullProfile(), true
	default:
		return Profile{}, false
	}
}

// Base returns a Config for the given cell with the profile's scaling
// applied. Beta <= 0 selects i.i.d. partitioning.
func (p Profile) Base(ds, atk, def string, beta float64) Config {
	return Config{
		Dataset:     ds,
		Attack:      atk,
		Defense:     def,
		Beta:        beta,
		Seed:        1,
		Rounds:      p.Rounds,
		EvalLimit:   p.EvalLimit,
		SampleCount: p.SampleCount,
		Parallel:    true,
	}
}
