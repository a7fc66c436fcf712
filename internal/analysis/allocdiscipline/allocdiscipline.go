// Package allocdiscipline rejects heap allocation on the annotated hot
// paths.
//
// PR 9 made zero steady-state allocation a load-bearing property of the
// engines: the arena/SoA layouts, the value-typed heaps, and the pooled
// slabs all exist so that a Run at p = 10⁶ costs O(1) allocations. That
// property is enforced dynamically by AllocsPerRun guards, but a guard
// only sees the paths its benchmark exercises — an escaping closure or
// a boxed interface value on an unexercised branch survives until a
// bench run happens to cross it. This analyzer rejects the defect at
// the source level (the BSF verification line of work argues for
// exactly this): it computes the hot set from //hot:path roots (see
// package hotset for the grammar), correlates the compiler's own escape
// analysis (`go build -gcflags=-m`, attached by kit.AttachEscapes) with
// hot-set positions, and reports any value escaping to the heap inside
// a hot function. Constructs the compiler reports elsewhere or not at
// all — defer inside a hot loop, range over a map, interface boxing —
// are flagged from the AST directly.
//
// Allocations that only feed a panic message are exempt: a panic is the
// end of the simulation, not a steady-state cost. Intentional
// exceptions (amortized growth, one-time warm-up on a hot path) carry
// //lint:ignore allocdiscipline directives with their reasons.
package allocdiscipline

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/hotset"
	"repro/internal/analysis/kit"
)

// Analyzer is the allocdiscipline check.
var Analyzer = &kit.Analyzer{
	Name: "allocdiscipline",
	Doc: "forbid heap allocation (compiler escape analysis), defer-in-loop, " +
		"map range, and interface boxing inside the //hot:path hot set",
	Scope: []string{
		"repro/internal/logp", "repro/internal/core", "repro/internal/horizon",
		"repro/internal/netsim", "repro/internal/relation",
		"repro/internal/bench",
	},
	Run: run,
}

func run(pass *kit.Pass) {
	set := hotset.Compute(pass)
	for _, iss := range set.Issues() {
		pass.Reportf(iss.Pos, "%s", iss.Msg)
	}

	// The compiler's verdicts: anything escaping to the heap at a
	// position inside a hot body allocates per event. Three positions
	// are not the allocation's home and are skipped:
	//   - inside a panic(...) call: the end of the simulation, not a
	//     steady-state cost;
	//   - inside a call to a declared function (unless the escape is a
	//     func literal the caller builds): the compiler re-reports an
	//     inlined callee's escape once per inlining context, and the
	//     callee's own body carries the judgeable copy;
	//   - on a range-over-func header: the desugared body closure is
	//     attributed there even though every inlined use of the
	//     iterator stack-allocates it (the AllocsPerRun guards pin
	//     this empirically).
	for _, e := range pass.Pkg.Escapes {
		pos := pass.PosFor(e.File, e.Line, e.Col)
		fn, root, hot := set.FuncAt(pos)
		if !hot || set.InPanicArg(pos) || set.InRangeOverFunc(pos) {
			continue
		}
		if set.InNamedCall(pos) && !strings.Contains(e.Message, "func literal") {
			continue
		}
		pass.Reportf(pos, "hot path allocates in %s (hot via //hot:path %s): %s",
			fn, root, e.Message)
	}

	// AST-level hazards inside hot bodies.
	for _, hf := range set.Funcs() {
		checkHotBody(pass, set, hf)
	}
}

// checkHotBody walks one hot function body for the hazards the escape
// output does not position usefully: defer inside a loop, map range,
// and interface conversions.
func checkHotBody(pass *kit.Pass, set *hotset.Set, hf hotset.HotFunc) {
	loops := loopRanges(hf.Decl.Body)
	inLoop := func(n ast.Node) bool {
		for _, r := range loops {
			if int(n.Pos()) >= r[0] && int(n.Pos()) < r[1] {
				return true
			}
		}
		return false
	}
	ast.Inspect(hf.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if inLoop(n) {
				pass.Reportf(n.Pos(),
					"defer inside a loop in hot function %s: each iteration allocates a defer record that only runs at return", hf.Name)
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(),
						"range over map in hot function %s: per-iteration hashing with randomized order; keep hot state in index-addressed slices", hf.Name)
				}
			}
		case *ast.CallExpr:
			checkConversion(pass, set, hf, n)
		case *ast.AssignStmt:
			checkAssignBoxing(pass, set, hf, n)
		}
		return true
	})
}

// checkConversion flags explicit conversions to interface types, which
// box their operand (pointer-shaped operands are stored directly and
// are exempt).
func checkConversion(pass *kit.Pass, set *hotset.Set, hf hotset.HotFunc, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.TypesInfo().Types[call.Fun]
	if !ok || !tv.IsType() || !types.IsInterface(tv.Type) {
		return
	}
	if boxes(pass.TypeOf(call.Args[0])) && !set.InPanicArg(call.Pos()) {
		pass.Reportf(call.Pos(),
			"interface conversion in hot function %s boxes %s: a per-event allocation unless the compiler can prove otherwise", hf.Name, pass.TypeOf(call.Args[0]))
	}
}

// checkAssignBoxing flags assignments of concrete values into
// interface-typed destinations.
func checkAssignBoxing(pass *kit.Pass, set *hotset.Set, hf hotset.HotFunc, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := pass.TypeOf(lhs)
		if lt == nil || !types.IsInterface(lt) {
			continue
		}
		if boxes(pass.TypeOf(as.Rhs[i])) && !set.InPanicArg(as.Pos()) {
			pass.Reportf(as.Rhs[i].Pos(),
				"interface assignment in hot function %s boxes %s: a per-event allocation unless the compiler can prove otherwise", hf.Name, pass.TypeOf(as.Rhs[i]))
		}
	}
}

// boxes reports whether storing a value of type t in an interface needs
// a heap box: pointer-shaped types (pointers, channels, maps, funcs,
// unsafe.Pointer) and untyped nil go in the interface word directly.
func boxes(t types.Type) bool {
	if t == nil || types.IsInterface(t) {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: stored in the interface word directly
	case *types.Basic:
		return u.Kind() != types.UnsafePointer && u.Kind() != types.UntypedNil
	}
	return true
}

// loopRanges collects the [pos, end) spans of every for/range body in
// the function.
func loopRanges(body *ast.BlockStmt) [][2]int {
	var out [][2]int
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Body != nil {
				out = append(out, [2]int{int(n.Body.Pos()), int(n.Body.End())})
			}
		case *ast.RangeStmt:
			if n.Body != nil {
				out = append(out, [2]int{int(n.Body.Pos()), int(n.Body.End())})
			}
		}
		return true
	})
	return out
}
