// Package analysis is fllint's machine-checkable encoding of the repo's
// reproducibility invariants: the properties the DFA/DFA-R results rest on
// — bit-identical runs at any worker count, arena buffer ownership,
// NaN-safe JSON at every persistence boundary, hot-path wall-clock reads
// through the telemetry clock, a standard-library-only dashboard — are
// enforced here as vet-style analyzers instead of review convention.
//
// The package mirrors the golang.org/x/tools/go/analysis API surface
// (Analyzer, Pass, Diagnostic) so the analyzers could be lifted onto the
// upstream framework mechanically; the local mirror exists because the
// repro builds offline with a dependency-free go.mod. Loading and
// type-checking are driven by `go list -export` plus the compiler's export
// data (see load.go), the same substrate `go vet` itself runs on.
//
// A deliberate violation is exempted in place with a reason:
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line above it. An allow comment without a
// reason is itself a violation: exemptions are part of the audit trail.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow comments.
	Name string
	// Doc is the one-paragraph invariant statement shown by fllint -help.
	Doc string
	// Run checks one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// allowMarker is the exemption comment prefix.
const allowMarker = "lint:allow "

// allowSet records, per file line, which analyzers an allow comment
// exempts.
type allowSet map[int]map[string]bool

// buildAllowSet scans a file's comments for lint:allow markers. A comment
// on line L exempts diagnostics on L and on L+1, matching the two idiomatic
// placements (end-of-line and line-above). Reasonless allow comments are
// returned separately — they exempt nothing and are reported as violations
// themselves.
func buildAllowSet(fset *token.FileSet, files []*ast.File) (allowSet, []token.Pos) {
	allow := allowSet{}
	var reasonless []token.Pos
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowMarker) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowMarker))
				name, reason, _ := strings.Cut(rest, " ")
				if name == "" || strings.TrimSpace(reason) == "" {
					reasonless = append(reasonless, c.Pos())
					continue
				}
				line := fset.Position(c.Pos()).Line
				for _, l := range [2]int{line, line + 1} {
					if allow[l] == nil {
						allow[l] = map[string]bool{}
					}
					allow[l][name] = true
				}
			}
		}
	}
	return allow, reasonless
}

// Run applies the analyzers to each loaded package and returns the
// surviving diagnostics sorted by position. Exempted diagnostics are
// dropped; malformed (reasonless) allow comments are reported under the
// pseudo-analyzer "lint".
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		// The invariants govern the production result path; test files are
		// free to build adversarial values (NaN configs, raw clocks). The
		// standalone loader never lists them, but the go vet driver hands us
		// [test] variants, so filter by filename for identical verdicts in
		// both modes.
		inTest := func(pos token.Pos) bool {
			return strings.HasSuffix(pkg.Fset.Position(pos).Filename, "_test.go")
		}
		allow, reasonless := buildAllowSet(pkg.Fset, pkg.Files)
		for _, pos := range reasonless {
			if inTest(pos) {
				continue
			}
			out = append(out, Diagnostic{
				Pos:      pos,
				Analyzer: "lint",
				Message:  "lint:allow exemption is missing a reason: write //lint:allow <analyzer> <reason>",
			})
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.report = func(d Diagnostic) {
				if inTest(d.Pos) {
					return
				}
				line := pkg.Fset.Position(d.Pos).Line
				if allow[line][a.Name] {
					return
				}
				out = append(out, d)
			}
			if err := a.Run(pass); err != nil {
				out = append(out, Diagnostic{
					Pos:      pkg.Files[0].Pos(),
					Analyzer: a.Name,
					Message:  fmt.Sprintf("internal error: %v", err),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// All returns fllint's analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, PoolEscape, NaNJSON, TelemetryClock, ZeroDep}
}

// derefNamed unwraps pointers and aliases to the underlying named type.
func derefNamed(t types.Type) (*types.Named, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	return named, ok
}

// ByName resolves analyzer names (comma-separated lists accepted by the
// fllint -checks flag) against the suite.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}
