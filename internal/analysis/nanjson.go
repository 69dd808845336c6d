package analysis

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"
)

// nanjsonPackages are the packages that serialize result metrics, where
// the paper's "not applicable" convention is NaN: encoding/json rejects
// NaN outright, so one unguarded float turns a whole report/journal write
// into an error at the worst possible time (end of a long run).
var nanjsonPackages = map[string]bool{"forensics": true, "report": true, "experiment": true}

// NaNJSON machine-checks the NaN→null discipline of the persistence
// boundaries: every struct reaching json.Marshal or (*json.Encoder).Encode
// in forensics, report or experiment must carry its NaN-able floats as
// persist.Float (which writes NaN as null) or nullable pointers, or own a
// MarshalJSON that guards them. Raw float64 fields in a marshaled type are
// flagged with the field path that can smuggle a NaN to the encoder.
var NaNJSON = &Analyzer{
	Name: "nanjson",
	Doc: `enforce NaN→null guards on every JSON boundary of the result path

In forensics, report and experiment, any value passed to json.Marshal,
json.MarshalIndent or (*json.Encoder).Encode must not expose raw float
fields: the paper's metrics use NaN for "N/A", encoding/json rejects NaN,
and an unguarded field fails the entire marshal at runtime. Make a
NaN-able float a persist.Float, which writes every non-finite value as
null, or implement MarshalJSON on the carrying type. Interface-typed
arguments are not checkable and are skipped.`,
	Run: runNaNJSON,
}

func runNaNJSON(pass *Pass) error {
	if !nanjsonPackages[pass.Pkg.Name()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			arg, what := jsonMarshalArg(pass.TypesInfo, call)
			if arg == nil {
				return true
			}
			t := pass.TypesInfo.TypeOf(arg)
			if t == nil {
				return true
			}
			if path, found := unguardedFloat(t, nil); found {
				pass.Reportf(arg.Pos(),
					"%s of %s: unguarded float at %s can carry NaN and fail the whole marshal; make it a persist.Float or give the type a MarshalJSON",
					what, types.TypeString(t, types.RelativeTo(pass.Pkg)), path)
			}
			return true
		})
	}
	return nil
}

// jsonMarshalArg returns the marshaled argument when call is json.Marshal,
// json.MarshalIndent or a (*json.Encoder).Encode call, else nil.
func jsonMarshalArg(info *types.Info, call *ast.CallExpr) (ast.Expr, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" || len(call.Args) == 0 {
		return nil, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, ""
	}
	if sig.Recv() == nil {
		if fn.Name() == "Marshal" || fn.Name() == "MarshalIndent" {
			return call.Args[0], "json." + fn.Name()
		}
		return nil, ""
	}
	if named, ok := derefNamed(sig.Recv().Type()); ok && named.Obj().Name() == "Encoder" && fn.Name() == "Encode" {
		return call.Args[0], "(*json.Encoder).Encode"
	}
	return nil, ""
}

// unguardedFloat walks t's marshaled shape and returns the path of the
// first raw (non-pointer) float field, honoring json:"-" skips and
// trusting any type that implements json.Marshaler or encoding.
// TextMarshaler to guard its own subtree. *float64 is the guard idiom and
// always trusted. Interfaces are unverifiable statically and skipped.
func unguardedFloat(t types.Type, seen []types.Type) (string, bool) {
	for _, s := range seen {
		if types.Identical(s, t) {
			return "", false
		}
	}
	seen = append(seen, t)

	if marshalsItself(t) {
		return "", false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Info()&types.IsFloat != 0 {
			return "", true
		}
	case *types.Pointer:
		if b, ok := u.Elem().Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
			return "", false // *float64: the NaN→null guard idiom
		}
		return unguardedFloat(u.Elem(), seen)
	case *types.Slice:
		if path, found := unguardedFloat(u.Elem(), seen); found {
			return "[]" + path, true
		}
	case *types.Array:
		if path, found := unguardedFloat(u.Elem(), seen); found {
			return "[]" + path, true
		}
	case *types.Map:
		if path, found := unguardedFloat(u.Elem(), seen); found {
			return "[·]" + path, true
		}
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !f.Exported() {
				continue
			}
			tag := reflect.StructTag(u.Tag(i))
			if jt, ok := tag.Lookup("json"); ok && jt == "-" {
				continue
			}
			if path, found := unguardedFloat(f.Type(), seen); found {
				if path == "" {
					return f.Name(), true
				}
				if strings.HasPrefix(path, "[") {
					return f.Name() + path, true
				}
				return f.Name() + "." + path, true
			}
		}
	}
	return "", false
}

// marshalsItself reports whether t (or *t) implements json.Marshaler or
// encoding.TextMarshaler and therefore owns its NaN discipline.
func marshalsItself(t types.Type) bool {
	for _, name := range [2]string{"MarshalJSON", "MarshalText"} {
		obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
		if fn, ok := obj.(*types.Func); ok {
			sig := fn.Type().(*types.Signature)
			if sig.Params().Len() == 0 && sig.Results().Len() == 2 {
				return true
			}
		}
	}
	return false
}
