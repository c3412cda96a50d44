package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file implements the intraprocedural value-flow tracking the dataflow
// analyzers (seedflow, hotalloc) are built on: expressions are classified
// by following assignments, calls and returns within one package, with
// conservative cross-package propagation via Facts (a function analyzed in
// a dependency exports whether its result is a derived seed; dependents
// only see the fact). "Conservative" throughout means: when the flow cannot
// be proven, the classification decays to originUnknown and nothing is
// flagged — the analyzers only report provably bad dataflow.

// origin classifies where a seed expression's value comes from.
type origin int

const (
	// originUnknown: not provable either way (parameters, results of
	// unclassified calls, merged branches). Never flagged.
	originUnknown origin = iota
	// originDerived: traces to runner.DeriveSeed (directly or through a
	// fact-carrying wrapper). The blessed form everywhere.
	originDerived
	// originConfig: a Seed field read off a Config/Options struct. Fine as
	// the base of a derivation; flagged when re-seeding inside a loop
	// (every iteration would see the same stream).
	originConfig
	// originLiteral: a compile-time constant. Raw literal seeds bypass the
	// DeriveSeed stream discipline.
	originLiteral
	// originArith: an arithmetic combination (seed+run*31, seed^salt, ...)
	// that did not go through DeriveSeed — the overlapping-streams bug
	// class PR 2 removed.
	originArith
)

func (o origin) String() string {
	switch o {
	case originDerived:
		return "derived"
	case originConfig:
		return "config"
	case originLiteral:
		return "literal"
	case originArith:
		return "arithmetic"
	default:
		return "unknown"
	}
}

// arithOps are the binary operators whose use on a seed counts as ad-hoc
// arithmetic derivation.
var arithOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
	token.REM: true, token.AND: true, token.OR: true, token.XOR: true,
	token.SHL: true, token.SHR: true, token.AND_NOT: true,
}

// flowDef is one reaching definition of a local variable.
type flowDef struct {
	rhs    ast.Expr // nil when the definition is opaque (range clause, ...)
	arith  bool     // definition via ++/--/op= with an arithmetic operator
	opaque bool
}

// funcFlow is the value-flow context of one outermost function declaration:
// an index of every assignment to every local object, including inside
// nested function literals.
type funcFlow struct {
	pass    *Pass
	defs    map[types.Object][]flowDef
	visited map[types.Object]bool // recursion guard for originOf/scratchBacked
}

// newFuncFlow indexes the assignments of fn (body may be nil for
// declarations without bodies).
func newFuncFlow(pass *Pass, fn *ast.FuncDecl) *funcFlow {
	ff := &funcFlow{
		pass:    pass,
		defs:    make(map[types.Object][]flowDef),
		visited: make(map[types.Object]bool),
	}
	if fn.Body == nil {
		return ff
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
				if len(s.Lhs) == len(s.Rhs) {
					for i := range s.Lhs {
						ff.addDef(s.Lhs[i], flowDef{rhs: s.Rhs[i]})
					}
				} else {
					// Multi-value call/comma-ok: opaque.
					for _, lhs := range s.Lhs {
						ff.addDef(lhs, flowDef{opaque: true})
					}
				}
				return true
			}
			// Compound assignment x op= y: arithmetic ops derive, the rest
			// are opaque.
			for _, lhs := range s.Lhs {
				ff.addDef(lhs, flowDef{arith: arithAssign(s.Tok), opaque: !arithAssign(s.Tok)})
			}
		case *ast.IncDecStmt:
			ff.addDef(s.X, flowDef{arith: true})
		case *ast.RangeStmt:
			if s.Key != nil {
				ff.addDef(s.Key, flowDef{opaque: true})
			}
			if s.Value != nil {
				ff.addDef(s.Value, flowDef{opaque: true})
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if i < len(s.Values) {
					ff.addDef(name, flowDef{rhs: s.Values[i]})
				}
			}
		}
		return true
	})
	return ff
}

func arithAssign(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN,
		token.REM_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN,
		token.SHL_ASSIGN, token.SHR_ASSIGN, token.AND_NOT_ASSIGN:
		return true
	}
	return false
}

func (ff *funcFlow) addDef(lhs ast.Expr, def flowDef) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := ff.pass.ObjectOf(id)
	if obj == nil {
		return
	}
	ff.defs[obj] = append(ff.defs[obj], def)
}

// originOf classifies a seed expression. The depth cap bounds pathological
// assignment chains; past it the result decays to unknown.
func (ff *funcFlow) originOf(expr ast.Expr, depth int) origin {
	if depth > 32 {
		return originUnknown
	}
	expr = ast.Unparen(expr)

	// Compile-time constants (literals, named constants, constant
	// arithmetic) are all raw literal seeds.
	if tv, ok := ff.pass.Pkg.Info.Types[expr]; ok && tv.Value != nil {
		return originLiteral
	}

	switch e := expr.(type) {
	case *ast.BinaryExpr:
		if arithOps[e.Op] {
			return originArith
		}
		return originUnknown
	case *ast.UnaryExpr:
		if arithOps[e.Op] || e.Op == token.SUB {
			return originArith
		}
		return originUnknown
	case *ast.CallExpr:
		// Conversions like int64(x) are transparent.
		if len(e.Args) == 1 {
			if tv, ok := ff.pass.Pkg.Info.Types[e.Fun]; ok && tv.IsType() {
				return ff.originOf(e.Args[0], depth+1)
			}
		}
		fn := ff.pass.calleeFunc(e)
		if fn == nil {
			return originUnknown
		}
		if isDeriveSeedFunc(fn) || ff.pass.isSeedDeriver(fn) {
			return originDerived
		}
		return originUnknown
	case *ast.SelectorExpr:
		// A Seed field read off any struct counts as a Config seed: the
		// repository convention keeps base seeds in Config/Options fields.
		if v, ok := ff.pass.ObjectOf(e.Sel).(*types.Var); ok && v.IsField() &&
			strings.Contains(v.Name(), "Seed") {
			return originConfig
		}
		return originUnknown
	case *ast.Ident:
		obj := ff.pass.ObjectOf(e)
		v, ok := obj.(*types.Var)
		if !ok {
			return originUnknown
		}
		if v.IsField() {
			if strings.Contains(v.Name(), "Seed") {
				return originConfig
			}
			return originUnknown
		}
		defs := ff.defs[obj]
		if len(defs) == 0 {
			return originUnknown // parameter or out-of-function state
		}
		if ff.visited[obj] {
			return originUnknown
		}
		ff.visited[obj] = true
		defer delete(ff.visited, obj)
		return ff.joinDefs(defs, depth)
	}
	return originUnknown
}

// joinDefs merges the origins of every reaching definition. The join is
// flag-conservative: a variable is only classified as bad when every
// definition is bad (all-literal, or all literal/arithmetic), and only as
// derived/config when every definition agrees.
func (ff *funcFlow) joinDefs(defs []flowDef, depth int) origin {
	merged := origin(-1)
	for _, d := range defs {
		var o origin
		switch {
		case d.opaque:
			o = originUnknown
		case d.arith:
			o = originArith
		default:
			o = ff.originOf(d.rhs, depth+1)
		}
		if merged == -1 {
			merged = o
			continue
		}
		if merged == o {
			continue
		}
		// literal ∪ arith stays arith (both bad); anything else decays.
		if (merged == originLiteral || merged == originArith) &&
			(o == originLiteral || o == originArith) {
			merged = originArith
			continue
		}
		return originUnknown
	}
	if merged == -1 {
		return originUnknown
	}
	return merged
}

// isDeriveSeedFunc recognizes the canonical runner.DeriveSeed.
func isDeriveSeedFunc(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil &&
		fn.Pkg().Path() == runnerPkg && fn.Name() == "DeriveSeed"
}

// isSeedDeriver reports (and lazily computes, for functions of the current
// package) whether fn's result provably traces to runner.DeriveSeed on
// every return path. Cross-package lookups hit only the fact store:
// packages are analyzed in import-path order, so a dependency's wrappers
// are already recorded.
func (p *Pass) isSeedDeriver(fn *types.Func) bool {
	key := fn.FullName()
	if v, ok := p.Facts.SeedDerivers[key]; ok {
		return v > 0
	}
	decl := p.Pkg.declOf(fn)
	if decl == nil || decl.Body == nil {
		p.Facts.SeedDerivers[key] = -1
		return false
	}
	// Mark in-progress (recursive wrappers resolve to "not a deriver").
	p.Facts.SeedDerivers[key] = -1

	// Only single-result functions can be seed derivers.
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Results().Len() != 1 {
		return false
	}
	ff := newFuncFlow(p, decl)
	derived := false
	ok := true
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // returns inside closures are not fn's returns
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet || len(ret.Results) != 1 {
			return true
		}
		if ff.originOf(ret.Results[0], 0) == originDerived {
			derived = true
		} else {
			ok = false
		}
		return true
	})
	if derived && ok {
		p.Facts.SeedDerivers[key] = 1
		return true
	}
	return false
}

// scratchCarrierNames are the type names whose fields hold amortized,
// reusable storage: appends that provably target them are not hot-path
// allocations (growth is bounded and reused across calls).
var scratchCarrierNames = map[string]bool{
	"Scratch":   true, // dcc/internal/graph
	"GraphBuf":  true, // dcc/internal/graph
	"Workspace": true, // dcc/internal/cycles
	"Echelon":   true, // dcc/internal/bitvec
	"Tester":    true, // dcc/internal/vpt
}

// isScratchCarrier reports whether t (possibly a pointer) is one of the
// reusable-buffer carrier types.
func isScratchCarrier(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return scratchCarrierNames[named.Obj().Name()]
}

// scratchBacked reports whether a slice expression provably aliases the
// storage of a scratch carrier: a field of Scratch/Workspace/..., a reslice
// of one, or a local whose every definition traces back to one (the
// `queue := s.queue[:0]; queue = append(queue, ...)` idiom).
func (ff *funcFlow) scratchBacked(expr ast.Expr, depth int) bool {
	if depth > 32 {
		return false
	}
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		return isScratchCarrier(ff.pass.TypeOf(e.X))
	case *ast.SliceExpr:
		return ff.scratchBacked(e.X, depth+1)
	case *ast.CallExpr:
		// append(scratchBacked, ...) stays scratch-backed.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" && len(e.Args) > 0 {
			if _, isBuiltin := ff.pass.ObjectOf(id).(*types.Builtin); isBuiltin {
				return ff.scratchBacked(e.Args[0], depth+1)
			}
		}
		return false
	case *ast.Ident:
		obj := ff.pass.ObjectOf(e)
		if obj == nil {
			return false
		}
		defs := ff.defs[obj]
		if len(defs) == 0 || ff.visited[obj] {
			return false
		}
		ff.visited[obj] = true
		defer delete(ff.visited, obj)
		any := false
		for _, d := range defs {
			if d.opaque || d.arith || d.rhs == nil {
				continue
			}
			// Self-referential defs (x = append(x, ...)) neither prove nor
			// disprove; a cycle hit returns false and is tolerated as long
			// as one def resolves.
			if ff.scratchBacked(d.rhs, depth+1) {
				any = true
			} else if !mentionsObj(ff.pass, d.rhs, obj) {
				return false // a genuinely foreign definition vetoes
			}
		}
		return any
	}
	return false
}

// mentionsObj reports whether expr references obj (used to recognize
// self-referential definitions like x = append(x, y)).
func mentionsObj(pass *Pass, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
