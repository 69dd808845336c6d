package analysis

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"
)

// RunKey machine-checks the run-store key-stability contract on
// experiment.Config: runKey hashes a version constant ("v2|") and the JSON
// of a normalized Config, so within one key version the struct's serialized
// shape IS the identity of every journaled run. The version is bumped when
// a code change moves existing outcomes; this contract is what lets a new
// sweep axis arrive without a bump. It has four clauses:
//
//  1. The untagged field prefix is the base shape every store of the
//     current key version hashes. Every field added after the first
//     json-tagged field must carry ",omitempty" (zero default ⇒ existing
//     configs marshal unchanged).
//  2. A tag without omitempty changes every existing key the moment the
//     field exists, so stores written before it stop resuming.
//  3. Every tagged field must be reachable from Normalize or cleanKey:
//     omitempty only preserves keys if the default canonicalizes to the
//     zero value, and that canonicalization (or an explicit keying/validity
//     decision) lives in those two functions.
//  4. Config holds only what identifies a run. A field that never
//     serializes (`json:"-"`, or unexported) says how a run is watched, not
//     what it is: it belongs in experiment.Watch, where no key derivation,
//     baseline or later seed has to remember to strip it.
var RunKey = &Analyzer{
	Name: "runkey",
	Doc: `enforce run-store key stability on experiment.Config

Every field of experiment.Config added after the untagged base prefix must
carry json:",omitempty", every tagged field must be referenced from
Normalize or cleanKey, and no field may be json:"-" (what does not identify
a run belongs in experiment.Watch), so a new sweep axis can never silently
re-key the journals of the current key version (v2), skip zero-default
canonicalization, or need stripping by hand.`,
	Run: runRunKey,
}

func runRunKey(pass *Pass) error {
	if pass.Pkg.Name() != "experiment" {
		return nil
	}
	cfg := findStruct(pass, "Config")
	if cfg == nil {
		return nil
	}
	mentioned := normalizeMentions(pass)
	seenTagged := false
	for _, field := range cfg.Fields.List {
		if len(field.Names) == 0 {
			pass.Reportf(field.Pos(),
				"embedded field in experiment.Config: promoted fields make the serialized key shape implicit; declare fields explicitly")
			continue
		}
		tag := ""
		hasTag := false
		if field.Tag != nil {
			raw := strings.Trim(field.Tag.Value, "`")
			tag, hasTag = reflect.StructTag(raw).Lookup("json")
		}
		for _, name := range field.Names {
			if !name.IsExported() {
				pass.Reportf(name.Pos(),
					"unexported field %s in experiment.Config never serializes: two configs differing in it would collide on one run-store key", name.Name)
				continue
			}
			if !hasTag {
				if seenTagged {
					pass.Reportf(name.Pos(),
						"field %s extends experiment.Config without a json tag: new fields must carry json:\",omitempty\" so legacy run-store keys survive", name.Name)
				}
				// Untagged base prefix: nothing to check.
				continue
			}
			parts := strings.Split(tag, ",")
			if parts[0] == "-" && len(parts) == 1 {
				pass.Reportf(name.Pos(),
					"field %s of experiment.Config is json:\"-\": it does not identify a run — it belongs in the watch value (experiment.Watch)", name.Name)
				continue
			}
			omitempty := false
			for _, opt := range parts[1:] {
				if opt == "omitempty" {
					omitempty = true
				}
			}
			if !omitempty {
				pass.Reportf(name.Pos(),
					"field %s of experiment.Config is serialized without omitempty: its presence re-keys every legacy config; tag it json:\",omitempty\"", name.Name)
			}
			if !mentioned[name.Name] {
				pass.Reportf(name.Pos(),
					"field %s of experiment.Config is not reachable from Normalize or cleanKey: zero-default canonicalization (and the baseline-keying decision) is unverified", name.Name)
			}
		}
		if hasTag {
			seenTagged = true
		}
	}
	return nil
}

// findStruct locates the named struct type's declaration in the package.
func findStruct(pass *Pass, name string) *ast.StructType {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return st
				}
			}
		}
	}
	return nil
}

// normalizeMentions collects the Config field names selected anywhere in
// the bodies of Normalize and cleanKey.
func normalizeMentions(pass *Pass) map[string]bool {
	mentioned := map[string]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			if fd.Name.Name != "Normalize" && fd.Name.Name != "cleanKey" {
				continue
			}
			if !receiverIsConfig(pass, fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s, ok := pass.TypesInfo.Selections[sel]
				if !ok || s.Kind() != types.FieldVal {
					return true
				}
				if named, ok := derefNamed(s.Recv()); ok && named.Obj().Name() == "Config" && named.Obj().Pkg() == pass.Pkg {
					mentioned[sel.Sel.Name] = true
				}
				return true
			})
		}
	}
	return mentioned
}

// receiverIsConfig reports whether fd's receiver base type is this
// package's Config.
func receiverIsConfig(pass *Pass, fd *ast.FuncDecl) bool {
	if len(fd.Recv.List) == 0 {
		return false
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	named, ok := derefNamed(t)
	return ok && named.Obj().Name() == "Config" && named.Obj().Pkg() == pass.Pkg
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
