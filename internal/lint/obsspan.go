package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// AnalyzerObsSpan enforces span hygiene in the observability layer
// (DESIGN.md §7): a span begun with StartSpan must be ended on every return
// path of the function that began it — via `defer sp.End()` (directly or
// inside a deferred closure) or an explicit End before each return — and the
// span name must come from the schema-v1 vocabulary (the obs.Span*
// constants), never a raw string literal.
//
// Spans whose handle escapes the function (stored in a struct, passed to a
// callee, returned) transfer ownership and are exempt from the local
// end-on-all-paths check, matching the caller-owned-span contract of
// surface.GenerateBlockCtx.
var AnalyzerObsSpan = &Analyzer{
	Name: "obsspan",
	Doc:  "obs spans must be ended on all return paths and named by Span* constants from the schema-v1 vocabulary",
	URL:  "DESIGN.md#lint-obsspan",
	Run:  runObsSpan,
}

func runObsSpan(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSpansInFunc(pass, fd)
		}
	}
	return nil
}

// checkSpansInFunc finds StartSpan assignments in the function and verifies
// naming and end-on-all-paths for each.
func checkSpansInFunc(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obsPkg := startSpanCallee(pass, call)
		if obsPkg == nil {
			return true
		}
		checkSpanName(pass, call, obsPkg)
		return true
	})

	// End-on-all-paths: walk each block for `x := <...>.StartSpan(...)`.
	walkBlocks(fd.Body, func(block []ast.Stmt) {
		for i, stmt := range block {
			obj := spanAssignTarget(pass, stmt)
			if obj == nil {
				continue
			}
			checkSpanEnds(pass, obj, stmt, block[i+1:])
		}
	})
}

// startSpanCallee returns the obs package when call is <expr>.StartSpan(...)
// on an obs.Run value, else nil.
func startSpanCallee(pass *Pass, call *ast.CallExpr) *types.Package {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "StartSpan" {
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if base := fn.Pkg().Path(); base != "obs" && !strings.HasSuffix(base, "/obs") {
		return nil
	}
	return fn.Pkg()
}

// checkSpanName requires the StartSpan argument to be (a constant equal to)
// one of the obs package's Span* constants. Raw string literals are flagged
// even when their value is in the vocabulary: the constants are the schema.
func checkSpanName(pass *Pass, call *ast.CallExpr, obsPkg *types.Package) {
	if len(call.Args) != 1 {
		return
	}
	arg := ast.Unparen(call.Args[0])
	vocab := spanVocabulary(obsPkg)
	if lit, ok := arg.(*ast.BasicLit); ok {
		val := strings.Trim(lit.Value, "`\"")
		if _, known := vocab[val]; known {
			pass.Reportf(lit.Pos(), "span name %q is a raw literal: use the %s.Span* constant so the schema-v1 vocabulary stays the single source of truth", val, obsPkg.Name())
		} else {
			pass.Reportf(lit.Pos(), "span name %q is not in the schema-v1 vocabulary (the %s.Span* constants)", val, obsPkg.Name())
		}
		return
	}
	// Identifiers/selectors resolving to constants must carry a vocabulary
	// value. Non-constant expressions (a variable naming a span chosen
	// upstream) are accepted; their value was checked where it was set.
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	val := constant.StringVal(tv.Value)
	if _, known := vocab[val]; !known {
		pass.Reportf(arg.Pos(), "span name %q is not in the schema-v1 vocabulary (the %s.Span* constants)", val, obsPkg.Name())
	}
}

// spanVocabulary collects the string values of the obs package's Span*
// constants.
func spanVocabulary(obsPkg *types.Package) map[string]bool {
	vocab := map[string]bool{}
	scope := obsPkg.Scope()
	for _, name := range scope.Names() {
		if !strings.HasPrefix(name, "Span") || name == "Span" {
			continue
		}
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Val().Kind() != constant.String {
			continue
		}
		vocab[constant.StringVal(c.Val())] = true
	}
	return vocab
}

// spanAssignTarget returns the variable a statement binds to a StartSpan
// result (`x := run.StartSpan(...)` or `x = run.StartSpan(...)`), nil
// otherwise or when the result is multi-assigned.
func spanAssignTarget(pass *Pass, stmt ast.Stmt) types.Object {
	assign, ok := stmt.(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return nil
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || startSpanCallee(pass, call) == nil {
		return nil
	}
	id, ok := assign.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// spanFlow is the per-path state of the end-on-all-paths walk.
type spanFlow struct {
	ended      bool // an explicit x.End() executed on this path
	deferred   bool // a defer registering x.End() executed on this path
	escaped    bool // the handle left the function; stop checking
	terminated bool // the path returned or branched away
}

func (s spanFlow) done() bool { return s.ended || s.deferred || s.escaped }

// checkSpanEnds verifies that the span bound at assign is ended on every
// path through the remaining statements of its declaring block.
func checkSpanEnds(pass *Pass, obj types.Object, assign ast.Stmt, rest []ast.Stmt) {
	st := walkSpanStmts(pass, obj, rest, spanFlow{})
	if !st.terminated && !st.done() {
		pass.Reportf(assign.Pos(),
			"span %s is not ended on every path: leaving its scope without %s.End() (use defer or end it before each return)",
			obj.Name(), obj.Name())
	}
}

// walkSpanStmts simulates the statement list, reporting returns that leave
// the span open.
func walkSpanStmts(pass *Pass, obj types.Object, stmts []ast.Stmt, st spanFlow) spanFlow {
	for _, stmt := range stmts {
		if st.terminated || st.escaped {
			return st
		}
		st = walkSpanStmt(pass, obj, stmt, st)
	}
	return st
}

func walkSpanStmt(pass *Pass, obj types.Object, stmt ast.Stmt, st spanFlow) spanFlow {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if isEndCall(pass, obj, s.X) {
			st.ended = true
			return st
		}
		if spanEscapes(pass, obj, s.X) {
			st.escaped = true
		}
		return st
	case *ast.DeferStmt:
		if deferEndsSpan(pass, obj, s) {
			st.deferred = true
			return st
		}
		if spanEscapes(pass, obj, s.Call) {
			st.escaped = true
		}
		return st
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if spanEscapes(pass, obj, r) {
				st.escaped = true
			}
		}
		if !st.done() {
			pass.Reportf(s.Pos(), "return leaves span %s open: call %s.End() on this path or defer it", obj.Name(), obj.Name())
		}
		st.terminated = true
		return st
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && usesObject(pass, id, obj) {
				st.escaped = true // rebound; stop tracking
				return st
			}
		}
		for _, rhs := range s.Rhs {
			if spanEscapes(pass, obj, rhs) {
				st.escaped = true
				return st
			}
		}
		return st
	case *ast.IfStmt:
		thenSt := walkSpanStmts(pass, obj, s.Body.List, st)
		elseSt := st
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			elseSt = walkSpanStmts(pass, obj, e.List, st)
		case ast.Stmt:
			elseSt = walkSpanStmt(pass, obj, e, st)
		}
		return mergeSpanFlow(thenSt, elseSt)
	case *ast.BlockStmt:
		return walkSpanStmts(pass, obj, s.List, st)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return walkSpanBranches(pass, obj, stmt, st)
	case *ast.ForStmt:
		// The body may run zero times: check returns inside with the current
		// state but do not credit Ends performed in the loop.
		walkSpanStmts(pass, obj, s.Body.List, st)
		return st
	case *ast.RangeStmt:
		walkSpanStmts(pass, obj, s.Body.List, st)
		return st
	case *ast.BranchStmt:
		// break/continue/goto leave this walk's scope; stop checking the
		// path rather than guessing the target.
		st.terminated = true
		return st
	case *ast.LabeledStmt:
		return walkSpanStmt(pass, obj, s.Stmt, st)
	case *ast.GoStmt:
		if spanEscapes(pass, obj, s.Call) {
			st.escaped = true
		}
		return st
	default:
		if stmtMentions(pass, stmt, obj) {
			// Unmodeled statement using the handle: assume ownership moved.
			st.escaped = true
		}
		return st
	}
}

// walkSpanBranches handles switch/type-switch/select: every case is an
// alternative path; a missing default leaves a fallthrough path with the
// incoming state.
func walkSpanBranches(pass *Pass, obj types.Object, stmt ast.Stmt, st spanFlow) spanFlow {
	var bodies [][]ast.Stmt
	hasDefault := false
	collect := func(list []ast.Stmt) {
		for _, c := range list {
			switch cc := c.(type) {
			case *ast.CaseClause:
				bodies = append(bodies, cc.Body)
				if cc.List == nil {
					hasDefault = true
				}
			case *ast.CommClause:
				bodies = append(bodies, cc.Body)
				if cc.Comm == nil {
					hasDefault = true
				}
			}
		}
	}
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		collect(s.Body.List)
	case *ast.TypeSwitchStmt:
		collect(s.Body.List)
	case *ast.SelectStmt:
		collect(s.Body.List)
		hasDefault = true // select blocks until a comm case runs
	}
	merged := spanFlow{terminated: true, ended: true, deferred: true}
	any := false
	for _, body := range bodies {
		bst := walkSpanStmts(pass, obj, body, st)
		merged = mergeSpanFlow(merged, bst)
		any = true
	}
	if !hasDefault || !any {
		merged = mergeSpanFlow(merged, st)
	}
	return merged
}

// mergeSpanFlow joins two alternative paths: the continuation is as safe as
// its least safe non-terminated branch.
func mergeSpanFlow(a, b spanFlow) spanFlow {
	if a.terminated && b.terminated {
		return spanFlow{terminated: true}
	}
	if a.terminated {
		return b
	}
	if b.terminated {
		return a
	}
	return spanFlow{
		ended:    a.ended && b.ended,
		deferred: a.deferred && b.deferred,
		escaped:  a.escaped || b.escaped,
	}
}

// isEndCall reports whether expr is x.End() on the tracked span.
func isEndCall(pass *Pass, obj types.Object, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && usesObject(pass, id, obj)
}

// deferEndsSpan reports whether a defer registers x.End(), directly or
// inside a deferred function literal.
func deferEndsSpan(pass *Pass, obj types.Object, d *ast.DeferStmt) bool {
	if isEndCall(pass, obj, d.Call) {
		return true
	}
	lit, ok := d.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if expr, ok := n.(ast.Expr); ok && isEndCall(pass, obj, expr) {
			found = true
			return false
		}
		return true
	})
	return found
}

// spanEscapes reports whether expr uses the span handle anywhere other than
// as the receiver of a method call — passing it to a callee, storing it in a
// composite literal or field, returning it.
func spanEscapes(pass *Pass, obj types.Object, expr ast.Expr) bool {
	escaped := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && usesObject(pass, id, obj) {
					// Method call on the handle: inspect only the arguments.
					for _, a := range call.Args {
						if spanEscapes(pass, obj, a) {
							escaped = true
						}
					}
					return false
				}
			}
		}
		if id, ok := n.(*ast.Ident); ok && usesObject(pass, id, obj) {
			escaped = true
			return false
		}
		return true
	})
	return escaped
}

// stmtMentions reports whether any identifier in the statement resolves to
// the tracked object.
func stmtMentions(pass *Pass, stmt ast.Stmt, obj types.Object) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && usesObject(pass, id, obj) {
			found = true
			return false
		}
		return true
	})
	return found
}

func usesObject(pass *Pass, id *ast.Ident, obj types.Object) bool {
	return pass.TypesInfo.Uses[id] == obj || pass.TypesInfo.Defs[id] == obj
}

// walkBlocks invokes fn on every statement list in the function body
// (blocks, case bodies, loop bodies), so span assignments are checked in
// their own declaring scope.
func walkBlocks(body *ast.BlockStmt, fn func([]ast.Stmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch b := n.(type) {
		case *ast.BlockStmt:
			fn(b.List)
		case *ast.CaseClause:
			fn(b.Body)
		case *ast.CommClause:
			fn(b.Body)
		}
		return true
	})
}
