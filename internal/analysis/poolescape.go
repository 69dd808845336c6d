package analysis

import (
	"go/ast"
	"go/types"
)

// PoolEscape machine-checks the tensor.Pool arena ownership rules that
// were previously README prose: storage handed out by Get, by the
// non-clearing GetUninit/GetTensorUninit and by GetView is
// valid only until the owning pool's next Reset and the arena is
// single-goroutine. A pooled buffer must never (a) be stored into a
// struct field that outlives the call frame, (b) be captured by a spawned
// goroutine, (c) be sent on a channel, or (d) be returned from a function
// that owns the pool itself — the caller cannot see the Reset that kills
// the buffer.
//
// Returning scratch carved from a pool the *caller* supplied (a *Pool
// parameter, or a pool reachable from the method receiver, as in the
// nn.Layer forward/backward protocol) is the sanctioned borrow idiom: the
// pool's owner controls Reset and the return stays inside one arena cycle.
// Passing a pooled buffer to an ordinary call is likewise allowed — the
// callee consumes it within the caller's frame. The arena's own package is
// exempt (it implements the arena).
var PoolEscape = &Analyzer{
	Name: "poolescape",
	Doc: `forbid tensor.Pool buffers from escaping their arena frame

Values obtained from tensor.Pool Get/GetUninit/GetTensorUninit/GetView
are arena scratch,
recycled wholesale at Reset. Storing them into struct fields, capturing
them in go statements, sending them on channels, or returning them from
the function that owns the pool makes a buffer outlive its arena cycle —
the next Reset silently aliases it into unrelated computation, corrupting
results without ever crashing. Returning scratch from a caller-supplied
(parameter or receiver) pool is the borrow idiom and allowed.`,
	Run: runPoolEscape,
}

// poolMethods are the arena hand-out entry points: the zeroed one, the
// contents-undefined ones, and the view over existing storage.
var poolMethods = map[string]bool{
	"Get":       true,
	"GetUninit": true, "GetTensorUninit": true,
	"GetView": true,
}

func runPoolEscape(pass *Pass) error {
	if pass.Pkg.Name() == "tensor" {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			tr := newPoolTracker(pass.TypesInfo, fd)
			tr.propagate(fd.Body)
			tr.check(pass, fd.Body)
		}
	}
	return nil
}

// poolTracker tracks, within one function, which locals are bound to
// pooled buffers — split into values from caller-supplied (borrowed)
// pools and values from function-owned pools, because only the latter may
// not be returned.
type poolTracker struct {
	info   *types.Info
	params map[types.Object]bool // parameters + receivers, incl. nested FuncLits
	any    map[types.Object]bool // bound to any pooled value
	owned  map[types.Object]bool // bound to a function-owned pool's value
}

func newPoolTracker(info *types.Info, fd *ast.FuncDecl) *poolTracker {
	tr := &poolTracker{
		info:   info,
		params: map[types.Object]bool{},
		any:    map[types.Object]bool{},
		owned:  map[types.Object]bool{},
	}
	addFields := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, f := range fields.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					tr.params[obj] = true
				}
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			addFields(lit.Type.Params)
		}
		return true
	})
	return tr
}

// poolCall classifies e: not a pool hand-out call (0), a hand-out from a
// caller-supplied pool (1), or from a function-owned pool (2).
func (tr *poolTracker) poolCall(e ast.Expr) int {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return 0
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	fn, ok := tr.info.Uses[sel.Sel].(*types.Func)
	if !ok || !poolMethods[fn.Name()] {
		return 0
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return 0
	}
	named, ok := derefNamed(sig.Recv().Type())
	if !ok || named.Obj().Name() != "Pool" ||
		named.Obj().Pkg() == nil || named.Obj().Pkg().Name() != "tensor" {
		return 0
	}
	if root := rootObj(tr.info, sel.X); root != nil && tr.params[root] {
		return 1 // pool supplied by the caller: borrow idiom
	}
	return 2 // local or package-level pool: this frame owns Reset
}

// propagate computes the fixpoint of pooled-value bindings through local
// assignments. Rebinding to a non-pooled value later is treated
// conservatively (once pooled, always pooled).
func (tr *poolTracker) propagate(body *ast.BlockStmt) {
	for {
		grew := false
		bind := func(id *ast.Ident, fromOwned bool) {
			obj := tr.info.Defs[id]
			if obj == nil {
				obj = tr.info.Uses[id]
			}
			if obj == nil {
				return
			}
			if !tr.any[obj] {
				tr.any[obj] = true
				grew = true
			}
			if fromOwned && !tr.owned[obj] {
				tr.owned[obj] = true
				grew = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i >= len(n.Lhs) {
						break
					}
					id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
					if !ok {
						continue
					}
					if tr.pooled(rhs, false) {
						bind(id, tr.pooled(rhs, true))
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if i >= len(n.Names) {
						break
					}
					if tr.pooled(v, false) {
						bind(n.Names[i], tr.pooled(v, true))
					}
				}
			}
			return true
		})
		if !grew {
			break
		}
	}
}

// check reports the escape sites.
func (tr *poolTracker) check(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if tr.pooled(res, true) {
					pass.Reportf(res.Pos(),
						"buffer from a function-owned tensor.Pool is returned: the caller cannot see the Reset that recycles it")
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if storesToField(lhs) && tr.pooled(n.Rhs[i], false) {
					pass.Reportf(n.Rhs[i].Pos(),
						"pooled tensor.Pool buffer is stored into a struct field: the field outlives the arena cycle that owns the buffer")
				}
			}
		case *ast.GoStmt:
			if tr.goUsesPooled(n.Call) {
				pass.Reportf(n.Pos(),
					"pooled tensor.Pool buffer is captured by a spawned goroutine: pools are single-goroutine and buffers die at Reset")
			}
		case *ast.SendStmt:
			if tr.pooled(n.Value, false) {
				pass.Reportf(n.Value.Pos(),
					"pooled tensor.Pool buffer is sent on a channel: the receiver outlives the arena cycle that owns the buffer")
			}
		}
		return true
	})
}

// pooled reports whether evaluating e can yield a pooled buffer (or an
// aliasing view of one); with ownedOnly it considers only buffers from
// function-owned pools. Slicing, field selection, dereference, address-
// taking and composite literals propagate the taint; indexing yields an
// element copy and ordinary calls consume the buffer within the frame, so
// both sever it. The append builtin propagates its arguments; a closure
// referencing pooled state carries the taint of what it captures.
func (tr *poolTracker) pooled(e ast.Expr, ownedOnly bool) bool {
	set := tr.any
	if ownedOnly {
		set = tr.owned
	}
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := tr.info.Uses[v]
		if obj == nil {
			obj = tr.info.Defs[v]
		}
		return obj != nil && set[obj]
	case *ast.CallExpr:
		if kind := tr.poolCall(v); kind != 0 {
			return !ownedOnly || kind == 2
		}
		if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := tr.info.Uses[id].(*types.Builtin); isBuiltin {
				for _, arg := range v.Args {
					if tr.pooled(arg, ownedOnly) {
						return true
					}
				}
			}
		}
		return false
	case *ast.SelectorExpr:
		return tr.pooled(v.X, ownedOnly)
	case *ast.SliceExpr:
		return tr.pooled(v.X, ownedOnly)
	case *ast.StarExpr:
		return tr.pooled(v.X, ownedOnly)
	case *ast.UnaryExpr:
		return tr.pooled(v.X, ownedOnly)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if tr.pooled(el, ownedOnly) {
				return true
			}
		}
		return false
	case *ast.FuncLit:
		found := false
		ast.Inspect(v.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := tr.info.Uses[id]; obj != nil && set[obj] {
					found = true
				}
			}
			return !found
		})
		return found
	}
	return false
}

// goUsesPooled reports whether a go statement's call references a pooled
// buffer — in the spawned function literal's body or as a call argument
// handed to the new goroutine.
func (tr *poolTracker) goUsesPooled(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if tr.pooled(arg, false) {
			return true
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return tr.pooled(lit, false)
	}
	return false
}

// storesToField reports whether lhs writes through a field selector
// (s.f = …, s.f[i] = …).
func storesToField(lhs ast.Expr) bool {
	for {
		switch v := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			return true
		case *ast.IndexExpr:
			lhs = v.X
		case *ast.StarExpr:
			lhs = v.X
		default:
			return false
		}
	}
}
