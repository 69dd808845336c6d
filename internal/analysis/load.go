package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
)

// A Package is one syntax+types unit handed to the analyzers.
type Package struct {
	PkgPath string
	Name    string
	// ModuleDir is the root of the package's module ("" under the go vet
	// driver).
	ModuleDir string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	Info      *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	DepOnly    bool
	Module     *struct{ Dir string }
	Error      *struct{ Err string }
}

// Load lists, parses and type-checks the packages matching the patterns
// (e.g. "./..."), resolving imports through the compiler's export data —
// the same substrate `go vet` runs on, so loading works offline and never
// re-type-checks dependencies from source. All returned packages share one
// FileSet.
//
// Analyzers see each target package's syntax; dependencies contribute
// types only.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json=Dir,ImportPath,Name,Export,GoFiles,ImportMap,DepOnly,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}
	var targets []*listedPackage
	exports := map[string]string{}
	importMaps := map[string]map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: go list decode: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if len(p.ImportMap) > 0 {
			importMaps[p.ImportPath] = p.ImportMap
		}
		if !p.DepOnly {
			q := p
			targets = append(targets, &q)
		}
	}

	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		if t.Name == "main" && len(t.GoFiles) == 0 {
			continue
		}
		pkg, err := typeCheck(fset, imp, t, importMaps[t.ImportPath])
		if err != nil {
			return nil, err
		}
		if t.Module != nil {
			pkg.ModuleDir = t.Module.Dir
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// typeCheck parses and checks one listed package from source.
func typeCheck(fset *token.FileSet, imp types.Importer, lp *listedPackage, importMap map[string]string) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %v", path, err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{
		Importer: &mappedImporter{base: imp, m: importMap},
		Error:    func(error) {}, // collect via the returned error below
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %v", lp.ImportPath, err)
	}
	return &Package{
		PkgPath: lp.ImportPath,
		Name:    tpkg.Name(),
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// mappedImporter applies a package's ImportMap (vendoring, test rewrites)
// before delegating to the shared export-data importer.
type mappedImporter struct {
	base types.Importer
	m    map[string]string
}

func (mi *mappedImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := mi.m[path]; ok {
		path = mapped
	}
	return mi.base.Import(path)
}

// exportImporter resolves import paths to compiler export data files. The
// path→file table usually comes from one `go list -export -deps` run; any
// miss (e.g. a fixture importing a stdlib package the target set never
// touched) is resolved by a lazy per-path `go list -export` call.
type exportImporter struct {
	mu      sync.Mutex
	exports map[string]string
	gc      types.ImporterFrom
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	ei := &exportImporter{exports: exports}
	ei.gc = importer.ForCompiler(fset, "gc", ei.lookup).(types.ImporterFrom)
	return ei
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	return ei.gc.ImportFrom(path, "", 0)
}

func (ei *exportImporter) lookup(path string) (io.ReadCloser, error) {
	ei.mu.Lock()
	file, ok := ei.exports[path]
	ei.mu.Unlock()
	if !ok {
		found, err := listExport(path)
		if err != nil {
			return nil, err
		}
		ei.mu.Lock()
		ei.exports[path] = found
		ei.mu.Unlock()
		file = found
	}
	return os.Open(file)
}

// listExport resolves one import path's export data via the go command.
func listExport(path string) (string, error) {
	cmd := exec.Command("go", "list", "-e", "-export", "-json=ImportPath,Export,Error", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("analysis: go list -export %s: %v\n%s", path, err, stderr.String())
	}
	var p listedPackage
	if err := json.Unmarshal(out, &p); err != nil {
		return "", fmt.Errorf("analysis: go list -export %s: %v", path, err)
	}
	if p.Error != nil {
		return "", fmt.Errorf("analysis: %s: %s", path, p.Error.Err)
	}
	if p.Export == "" {
		return "", fmt.Errorf("analysis: no export data for %q", path)
	}
	return p.Export, nil
}

// NewDepImporter returns an importer backed by the compiler's export
// data, resolving every path lazily through the go command. It serves
// tools (the analysistest harness) that type-check sources living outside
// the module's package graph but still import stdlib packages.
func NewDepImporter(fset *token.FileSet) types.Importer {
	return newExportImporter(fset, map[string]string{})
}

// CheckFiles type-checks one package from an explicit file list and an
// import-path→export-file table — the shape the go vet driver hands a
// vettool. Import paths missing from the table resolve lazily through the
// go command.
func CheckFiles(importPath string, goFiles []string, importMap, packageFile map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	exports := make(map[string]string, len(packageFile))
	for p, f := range packageFile {
		exports[p] = f
	}
	imp := newExportImporter(fset, exports)
	lp := &listedPackage{ImportPath: importPath, GoFiles: goFiles}
	return typeCheck(fset, imp, lp, importMap)
}
