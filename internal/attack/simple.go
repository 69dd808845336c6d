package attack

import (
	"repro/internal/fl"
	"repro/internal/vec"
)

// FreeRider is the free-riding behaviour of Section II-B (Fraboni et al.,
// Lin et al.): the client contributes no computation and returns the global
// model, optionally disguised with Gaussian noise so the update does not
// equal the broadcast weights bit for bit. Free-riding is not an accuracy
// attack — it dilutes the aggregate — and serves as a "weakest adversary"
// baseline for the defenses.
type FreeRider struct {
	// NoiseStd disguises the returned model; 0 returns it unchanged.
	NoiseStd float64
}

var _ fl.Attack = FreeRider{}

// Name implements fl.Attack.
func (FreeRider) Name() string { return "freerider" }

// Craft implements fl.Attack.
func (a FreeRider) Craft(ctx *fl.AttackContext) ([][]float64, error) {
	return fl.Replicate(ctx, ctx.Global, a.NoiseStd), nil
}

// SignFlip is the reversed-gradient model poisoning of Section II-B ("submit
// updates of the reversed sign of training gradient", the core idea behind
// the Fang attack): the malicious update moves the global model in the
// direction opposite to the benign mean update, scaled by Gamma.
type SignFlip struct {
	// Gamma scales the reversed step (default 1).
	Gamma float64
}

var _ fl.OracleAttack = SignFlip{}

// ReadsBenignUpdates implements fl.OracleAttack.
func (SignFlip) ReadsBenignUpdates() {}

// Name implements fl.Attack.
func (SignFlip) Name() string { return "signflip" }

// Craft implements fl.Attack.
func (a SignFlip) Craft(ctx *fl.AttackContext) ([][]float64, error) {
	if len(ctx.BenignUpdates) == 0 {
		return fallback(ctx), nil
	}
	gamma := a.Gamma
	if gamma <= 0 {
		gamma = 1
	}
	mean := vec.Mean(ctx.BenignUpdates)
	step := vec.Sub(mean, ctx.Global) // benign direction of change
	mal := vec.Add(ctx.Global, vec.Scale(step, -gamma))
	return fl.Replicate(ctx, mal, 0), nil
}
