// Package analysistest runs one analyzer over source fixtures under a
// testdata directory and checks its diagnostics against // want comments.
// It mirrors golang.org/x/tools/go/analysis/analysistest for the local
// framework, so the fixture layout (testdata/src/<pkg>/*.go) and the
// expectation comments would survive a mechanical move to the upstream
// harness.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run loads testdata/src/<path> for each named fixture package, applies
// the analyzer through the same exemption-filtering pipeline as fllint
// (so //lint:allow comments and the reasonless-allow check behave exactly
// as in production), and compares the diagnostics against the fixtures'
// expectation comments:
//
//	// want "regexp" `regexp` ...
//
// declares that each pattern must match one diagnostic reported on that
// line. // want+1 declares expectations for the following line — needed
// for diagnostics that land on comment-only lines, such as the
// reasonless-allow violation, whose position is the comment itself.
//
// Fixture packages import each other by bare path (resolved from
// testdata/src) and the standard library (resolved from compiler export
// data). A testdata directory holding a go.mod is a fixture module
// instead: it is loaded as fllint loads a module, and pkgPaths are go list
// patterns relative to it.
//
//lint:allow deadexport the harness of the analyzer tests
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	var pkgs []*analysis.Package
	if _, err := os.Stat(filepath.Join(testdata, "go.mod")); err == nil {
		if pkgs, err = analysis.Load(testdata, pkgPaths...); err != nil {
			t.Fatalf("analysistest: %v", err)
		}
	} else {
		l := newLoader(testdata)
		for _, p := range pkgPaths {
			pkg, err := l.load(p)
			if err != nil {
				t.Fatalf("analysistest: %v", err)
			}
			pkgs = append(pkgs, pkg)
		}
	}
	fset := pkgs[0].Fset
	var wants []*expectation
	for _, pkg := range pkgs {
		ws, err := collectWants(fset, pkg.Files)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		wants = append(wants, ws...)
	}
	for _, d := range analysis.Run(pkgs, []*analysis.Analyzer{a}) {
		pos := fset.Position(d.Pos)
		if !claim(wants, pos, d.Message) {
			t.Errorf("unexpected diagnostic at %s: %s: %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re)
		}
	}
}

// An expectation is one want pattern anchored to a fixture line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

// claim marks the first unmet expectation matching the diagnostic.
func claim(wants []*expectation, pos token.Position, message string) bool {
	for _, w := range wants {
		if !w.met && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(message) {
			w.met = true
			return true
		}
	}
	return false
}

// wantPattern extracts the quoted ("…" with escapes) and backquoted (`…`)
// expectation patterns from a want comment.
var wantPattern = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// collectWants parses the expectation comments out of the fixture files.
func collectWants(fset *token.FileSet, files []*ast.File) ([]*expectation, error) {
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				offset := 0
				switch {
				case strings.HasPrefix(text, "want+1 "):
					offset, text = 1, strings.TrimPrefix(text, "want+1 ")
				case strings.HasPrefix(text, "want "):
					text = strings.TrimPrefix(text, "want ")
				default:
					continue
				}
				pos := fset.Position(c.Pos())
				matches := wantPattern.FindAllStringSubmatch(text, -1)
				if len(matches) == 0 {
					return nil, fmt.Errorf("%s:%d: want comment without a quoted pattern", pos.Filename, pos.Line)
				}
				for _, m := range matches {
					pat := m[2]
					if m[1] != "" || m[2] == "" {
						unq, err := strconv.Unquote(`"` + m[1] + `"`)
						if err != nil {
							return nil, fmt.Errorf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						pat = unq
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line + offset, re: re})
				}
			}
		}
	}
	return wants, nil
}

// loader type-checks fixture packages from testdata/src, resolving
// fixture-local imports recursively from source and everything else from
// compiler export data.
type loader struct {
	fset *token.FileSet
	src  string
	pkgs map[string]*analysis.Package
	dep  types.Importer
}

func newLoader(testdata string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset: fset,
		src:  filepath.Join(testdata, "src"),
		pkgs: map[string]*analysis.Package{},
		dep:  analysis.NewDepImporter(fset),
	}
}

func (l *loader) load(path string) (*analysis.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.src, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check fixture %s: %v", path, err)
	}
	pkg := &analysis.Package{
		PkgPath: path,
		Name:    tpkg.Name(),
		Fset:    l.fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import resolves fixture-local packages from source and delegates the
// rest (stdlib) to export data, satisfying types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if st, err := os.Stat(filepath.Join(l.src, path)); err == nil && st.IsDir() {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.dep.Import(path)
}
