package analysis

import (
	"go/ast"
	"go/types"
)

// hotPathPackages are the packages on the per-round hot path that the
// telemetry subsystem instruments: spans in them must share one epoch so
// a Chrome trace's tracks line up, and the on/off bit-identity invariant
// (TestTelemetryOnOffBitIdentical) means no result may depend on when a
// phase ran. Matching is by package name so analysistest fixtures
// exercise the same predicate as the real tree. internal/telemetry itself
// is deliberately absent — it implements the sanctioned clock — and
// experiment sits above the hot path (its wall-clock reads feed lease
// staleness and progress ETAs, not spans).
var hotPathPackages = map[string]bool{
	"fl": true, "flnet": true, "defense": true, "codec": true,
	"core": true, "forensics": true, "population": true,
}

// TelemetryClock forbids raw wall-clock reads on the round hot path.
var TelemetryClock = &Analyzer{
	Name: "telemetryclock",
	Doc: `route hot-path wall-clock reads through the telemetry clock

In fl, flnet, defense, codec, core, forensics and population — the
packages the round tracer instruments — top-level time.Now and time.Since
calls bypass the telemetry epoch: spans timed off a private clock land on
the wrong spot in the Chrome trace, and a second clock source is the first
step toward time-dependent results, which the telemetry-off bit-identity
test cannot catch if both runs take the same branch. Use telemetry.Nanos,
the span time base, for durations and timestamps. Reads
that feed the operating system rather than results — socket and accept
deadlines — are exempted in place with //lint:allow telemetryclock.`,
	Run: runTelemetryClock,
}

func runTelemetryClock(pass *Pass) error {
	if !hotPathPackages[pass.Pkg.Name()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() != nil {
				return true // methods ((time.Time).Sub etc.) operate on values already read
			}
			if name := fn.Name(); name == "Now" || name == "Since" {
				pass.Reportf(call.Pos(),
					"call to time.%s on the round hot path bypasses the telemetry epoch; use telemetry.Nanos, or //lint:allow telemetryclock <reason> for OS deadlines",
					name)
			}
			return true
		})
	}
	return nil
}
