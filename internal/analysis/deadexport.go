package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"io/fs"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// DeadExport flags exported declarations that no non-test file uses.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc: `delete exported declarations no command reaches

Every exported func, type, var, const or method declared in a non-test file
must be used by a non-test file of its module, or of a module nested below
it that replaces it with the local tree (as bench/ replaces repro). A
method counts as used when its type satisfies an interface through it or a
type assertion tests for it. Uses come from the whole module even for a
partial pattern. A deliberate test-only export is exempted in place with
//lint:allow deadexport; the go vet driver, one package per unit, skips it.`,
	RunModule: runDeadExport,
}

func runDeadExport(pass *Pass, pkgs []*Package) error {
	root := pkgs[0].ModuleDir
	if root == "" {
		return nil
	}
	users, err := loadUsers(root)
	if err != nil {
		return err
	}
	used := usedObjects(users)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, id := range exportedDecls(file) {
				if key := objKey(pkg.Info.Defs[id]); key != "" && pkg.ModuleDir == root && !used[key] {
					pass.Reportf(id.Pos(), "%s.%s is exported but has no use in a non-test file: delete it, unexport it, or //lint:allow deadexport <reason>",
						pkg.Name, strings.TrimPrefix(key, pkg.PkgPath+"."))
				}
			}
		}
	}
	return nil
}

// exportedDecls returns the identifiers of a file's exported package-level
// funcs, methods, types, vars and consts, and of its interfaces' methods.
func exportedDecls(file *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			ids = append(ids, n.Name)
			return false
		case *ast.ValueSpec:
			ids = append(ids, n.Names...)
		case *ast.TypeSpec:
			ids = append(ids, n.Name)
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				ids = append(ids, m.Names...)
			}
		}
		return true
	})
	return slices.DeleteFunc(ids, func(id *ast.Ident) bool { return !id.IsExported() })
}

// loadUsers loads the packages whose non-test files may use an export of
// the module at root: the module itself and every module nested below it
// whose go.mod replaces a module with root.
func loadUsers(root string) ([]*Package, error) {
	dirs := []string{root}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if dir := filepath.Dir(path); d.Name() == "go.mod" && dir != root {
			out, err := exec.Command("go", "list", "-C", dir, "-m", "-f", "{{with .Replace}}{{.Dir}}{{end}}", "all").Output()
			if err != nil {
				return fmt.Errorf("go list -m all in %s: %v", dir, err)
			}
			if slices.Contains(strings.Split(string(out), "\n"), root) {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	var users []*Package
	for _, dir := range dirs {
		if err != nil {
			break
		}
		var pkgs []*Package
		pkgs, err = Load(dir, "./...")
		users = append(users, pkgs...)
	}
	return users, err
}

// usedObjects returns the keys of every object the users' files refer to,
// of every method through which one of their types satisfies an interface
// in reach, and of every method of an interface a type assertion tests for.
func usedObjects(users []*Package) map[string]bool {
	used := map[string]bool{}
	// The interfaces in reach, by first method: error, those the users
	// spell, and those every package they import declares.
	ifaces := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if ok && it.NumMethods() > 0 && !slices.Contains(ifaces[it.Method(0).Name()], it) {
			ifaces[it.Method(0).Name()] = append(ifaces[it.Method(0).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	var named []*types.Named
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package, own bool)
	walk = func(p *types.Package, own bool) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				addIface(tn.Type())
				if n, ok := tn.Type().(*types.Named); ok && own && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp, false)
		}
	}
	for _, pkg := range users {
		walk(pkg.Types, true)
		for _, obj := range pkg.Info.Uses {
			used[objKey(obj)] = true
		}
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if ta, ok := n.(*ast.TypeAssertExpr); ok && ta.Type != nil {
					if it, ok := pkg.Info.TypeOf(ta.Type).Underlying().(*types.Interface); ok {
						for i := 0; i < it.NumMethods(); i++ {
							used[objKey(it.Method(i))] = true
						}
					}
				}
				return true
			})
		}
	}
	for _, n := range named {
		var t types.Type = types.NewPointer(n)
		if types.IsInterface(n) {
			t = n
		}
		mset := types.NewMethodSet(t)
		for i := 0; i < mset.Len(); i++ {
			for _, it := range ifaces[mset.At(i).Obj().Name()] {
				if types.Identical(it, n.Underlying()) || !types.Implements(t, it) {
					continue
				}
				for j := 0; j < it.NumMethods(); j++ {
					used[objKey(mset.Lookup(it.Method(j).Pkg(), it.Method(j).Name()).Obj())] = true
				}
			}
		}
	}
	return used
}

// objKey names a package-level object or a method alike in every
// type-checked universe — a source-checked package and the export data
// another module imports it from — and is "" for anything else.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		named, ok := derefNamed(fn.Signature().Recv().Type())
		if !ok {
			return ""
		}
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
