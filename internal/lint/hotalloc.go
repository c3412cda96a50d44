package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// HotAllocAnalyzer guards the allocation-free hot paths. Functions marked
// //lint:hotpath are roots (the vpt.Cache deletability test path); every
// function reachable from a root through the approximate call graph is hot,
// and allocation expressions there — make, new, slice/map composite
// literals, &T{} and append — are flagged unless the storage provably
// belongs to a scratch carrier (graph.Scratch, graph.GraphBuf,
// cycles.Workspace, bitvec.Echelon, vpt.Tester): appends into carrier
// fields and makes/literals assigned directly to them are amortized by
// construction. Value composite literals (Vector{...}, Edge{...}) do not
// heap-allocate and are not flagged. A //lint:ignore hotalloc waiver on an
// allocation line waives that site; on the function declaration line it
// waives the whole function (for the deliberate cold setup paths that hot
// functions share code with). Reachability crosses packages: call edges
// and sites are accumulated per package and resolved in the Finish hook.
var HotAllocAnalyzer = &Analyzer{
	Name:   "hotalloc",
	Doc:    "no allocation in functions reachable from //lint:hotpath roots",
	Run:    runHotAlloc,
	Finish: finishHotAlloc,
}

func runHotAlloc(pass *Pass) {
	pass.forEachFuncDecl(func(fn *types.Func, decl *ast.FuncDecl) {
		pass.collectCallEdges(fn, decl)
		if pass.Pkg.hotpathRoot(decl.Pos()) {
			pass.Facts.HotRoots = append(pass.Facts.HotRoots, funcKey(fn))
		}
		if decl.Body == nil {
			return
		}
		funcWaived := pass.Pkg.waived(pass.Analyzer.Name, "", decl.Pos())
		ff := newFuncFlow(pass, decl)
		exempt := scratchAssignedExprs(pass, decl)
		key := funcKey(fn)

		record := func(pos ast.Node, kind, detail string) {
			pass.Facts.AllocSites = append(pass.Facts.AllocSites, AllocSite{
				FuncKey: key,
				Kind:    kind,
				Detail:  detail,
				Pos:     pass.Pkg.Fset.Position(pos.Pos()),
				Waived:  funcWaived || pass.Pkg.waived(pass.Analyzer.Name, "", pos.Pos()),
			})
		}

		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				id, ok := ast.Unparen(e.Fun).(*ast.Ident)
				if !ok {
					return true
				}
				if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); !isBuiltin {
					return true
				}
				switch id.Name {
				case "make", "new":
					if !exempt[ast.Expr(e)] {
						detail := ""
						if len(e.Args) > 0 {
							detail = types.ExprString(e.Args[0])
						}
						record(e, id.Name, detail)
					}
				case "append":
					if len(e.Args) > 0 && !ff.scratchBacked(e.Args[0], 0) {
						record(e, "append", types.ExprString(e.Args[0]))
					}
				}
			case *ast.UnaryExpr:
				// &T{...} escapes to the heap.
				if lit, ok := e.X.(*ast.CompositeLit); ok && !exempt[ast.Expr(e)] {
					record(e, "heap composite literal", types.ExprString(lit.Type))
				}
			case *ast.CompositeLit:
				// Slice and map literals allocate backing storage; value
				// struct/array literals do not.
				if exempt[ast.Expr(e)] {
					return true
				}
				switch pass.TypeOf(e).Underlying().(type) {
				case *types.Slice:
					record(e, "slice literal", types.ExprString(e.Type))
				case *types.Map:
					record(e, "map literal", types.ExprString(e.Type))
				}
			}
			return true
		})
	})
}

// scratchAssignedExprs collects right-hand sides assigned directly into a
// field of a scratch carrier (s.stamp = make(...), e.byPiv = make(...)):
// those allocations (re)establish the amortized buffers themselves.
func scratchAssignedExprs(pass *Pass, decl *ast.FuncDecl) map[ast.Expr]bool {
	exempt := make(map[ast.Expr]bool)
	if decl.Body == nil {
		return exempt
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if isScratchCarrier(pass.TypeOf(sel.X)) {
				exempt[ast.Unparen(assign.Rhs[i])] = true
			}
		}
		return true
	})
	return exempt
}

// finishHotAlloc computes the set of functions reachable from the
// //lint:hotpath roots and reports the unwaived allocation sites inside it.
func finishHotAlloc(facts *Facts, report func(Diagnostic)) {
	reachable := make(map[string]bool)
	queue := append([]string(nil), facts.HotRoots...)
	for _, r := range queue {
		reachable[r] = true
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range facts.CallEdges[fn] {
			if !reachable[callee] {
				reachable[callee] = true
				queue = append(queue, callee)
			}
		}
	}
	sites := append([]AllocSite(nil), facts.AllocSites...)
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i].Pos, sites[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, s := range sites {
		if s.Waived || !reachable[s.FuncKey] {
			continue
		}
		detail := ""
		if s.Detail != "" {
			detail = fmt.Sprintf(" of %s", s.Detail)
		}
		report(Diagnostic{
			Pos:      s.Pos,
			Analyzer: "hotalloc",
			Message: fmt.Sprintf("%s%s in %s, which is reachable from a //lint:hotpath root; reuse a scratch buffer or waive with a reason",
				s.Kind, detail, s.FuncKey),
		})
	}
}
