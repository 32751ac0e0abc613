package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Goroutine-escape layer: the alias half of the concurrency analyzers.
// For every declared function it computes which local variables and
// parameters escape into other goroutines — as free variables of a go'd
// closure, as pointer-like arguments of a `go f(...)` call, or as
// pointer-like arguments passed into a spawn-reaching parameter
// position of a module callee (a callee that, transitively, hands that
// parameter to a goroutine it starts: ShardRunner dispatch, the
// mddserve worker pool). Spawn reachability is a bottom-up Summarize
// fixpoint over the call graph, so `runner.Run(tasks, exec)` marks
// `tasks` and `exec` escaped even though the go statements live two
// calls down. Channel sends are recorded separately: an object whose
// only escape is a send is a candidate for ownership hand-off, which
// racecheck treats as transfer rather than sharing.
//
// Granularity matches the rest of the suite: whole variables keyed by
// types.Object. Value-typed go-call arguments are copies and do not
// escape (only pointer-like values — pointers, slices, maps, chans,
// funcs, interfaces — share state across the spawn). Free variables of
// a closure escape regardless of type: closures capture by reference.

// SpawnSite is one point in a function body where state is handed to
// another goroutine: a go statement, or a call into a module callee
// with spawn-reaching parameters.
type SpawnSite struct {
	// Pos is the site's position (the go keyword or the call).
	Pos token.Pos
	// Go is the go statement, nil for spawning calls.
	Go *ast.GoStmt
	// Call is the go statement's call, or the spawning callee call.
	Call *ast.CallExpr
	// Body is the spawned closure's body for `go func(){...}(...)`;
	// nil when the goroutine's code is not locally visible (named
	// go targets and spawning callees).
	Body *ast.BlockStmt
	// Captured holds the objects shared with the spawned goroutine.
	Captured map[types.Object]bool
	// InLoop marks sites inside a for/range statement: several
	// instances of the goroutine may be live at once.
	InLoop bool
}

// EscapeInfo is one function's goroutine-escape summary.
type EscapeInfo struct {
	// Sites lists the spawn points in source order.
	Sites []*SpawnSite
	// ChanSent holds pointer-like objects sent on a channel: ownership
	// hand-off candidates.
	ChanSent map[types.Object]bool
	// Joins lists parent-level sync.WaitGroup.Wait positions: a site
	// followed by a join does not leak concurrency past the function's
	// return.
	Joins []token.Pos
}

// joinsAfter reports whether a parent-level join follows pos.
func (e *EscapeInfo) joinsAfter(pos token.Pos) bool {
	for _, j := range e.Joins {
		if j > pos {
			return true
		}
	}
	return false
}

// Captured reports whether obj escapes through any spawn site.
func (e *EscapeInfo) Captured(obj types.Object) bool {
	for _, s := range e.Sites {
		if s.Captured[obj] {
			return true
		}
	}
	return false
}

// spawnFact is the interprocedural summary: Params[i] (receiver first,
// declParamObjects indexing) escapes into a goroutine the function
// transitively spawns.
type spawnFact struct {
	Params []bool
}

func spawnFactsEqual(a, b *spawnFact) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.Params) != len(b.Params) {
		return false
	}
	for i := range a.Params {
		if a.Params[i] != b.Params[i] {
			return false
		}
	}
	return true
}

// GoroutineEscapes computes (and caches) the escape summary of every
// declared function in the module.
func GoroutineEscapes(m *Module) map[*types.Func]*EscapeInfo {
	return m.Cached("escape:info", func() any {
		g := m.CallGraph()
		facts := Summarize(g, func(n *FuncNode, get func(*types.Func) *spawnFact) *spawnFact {
			esc := computeEscape(n, get)
			if len(esc.Sites) == 0 {
				return nil
			}
			params := declParamObjects(n)
			if len(params) == 0 {
				return nil
			}
			// A site followed by a parent-level WaitGroup.Wait is joined
			// before the function returns: its captures never leak to
			// callers (the fan-out/join idiom of FreqOperator.run and friends).
			fact := &spawnFact{Params: make([]bool, len(params))}
			any := false
			for _, s := range esc.Sites {
				if esc.joinsAfter(s.Pos) {
					continue
				}
				for i, p := range params {
					if p != nil && s.Captured[p] {
						fact.Params[i] = true
						any = true
					}
				}
			}
			if !any {
				return nil
			}
			return fact
		}, spawnFactsEqual)
		get := func(fn *types.Func) *spawnFact { return facts[fn] }
		out := make(map[*types.Func]*EscapeInfo, len(g.Nodes))
		for _, n := range g.SortedNodes() {
			out[n.Fn] = computeEscape(n, get)
		}
		return out
	}).(map[*types.Func]*EscapeInfo)
}

// computeEscape walks one declaration body collecting spawn sites and
// channel sends, resolving spawning callees through the current facts.
func computeEscape(n *FuncNode, get func(*types.Func) *spawnFact) *EscapeInfo {
	info := n.Pkg.Info
	esc := &EscapeInfo{ChanSent: map[types.Object]bool{}}
	declSpan := span{n.Decl.Pos(), n.Decl.End()}
	walkNodeStack(n.Decl.Body, func(nd ast.Node, stack []ast.Node) {
		switch nd := nd.(type) {
		case *ast.GoStmt:
			site := &SpawnSite{
				Pos:      nd.Pos(),
				Go:       nd,
				Call:     nd.Call,
				Captured: map[types.Object]bool{},
				InLoop:   inLoopStack(stack),
			}
			if lit, ok := ast.Unparen(nd.Call.Fun).(*ast.FuncLit); ok {
				site.Body = lit.Body
				captureFreeVars(info, lit, declSpan, site.Captured)
			}
			for _, arg := range nd.Call.Args {
				capturePointerLike(info, arg, declSpan, site.Captured)
			}
			if site.Body == nil {
				// go f(x): the receiver of a method value target is shared
				// with the goroutine exactly like an argument.
				if sel, ok := ast.Unparen(nd.Call.Fun).(*ast.SelectorExpr); ok {
					capturePointerLike(info, sel.X, declSpan, site.Captured)
				}
			}
			esc.Sites = append(esc.Sites, site)
		case *ast.CallExpr:
			if isWaitGroupWait(info, nd) && !insideFuncLit(stack) {
				esc.Joins = append(esc.Joins, nd.Pos())
			}
			if _, isGo := parentNode(stack).(*ast.GoStmt); isGo {
				return // the go statement handled its own call above
			}
			site := n.Site(nd)
			if site == nil || site.Callee == nil {
				return
			}
			fact := get(site.Callee.Fn)
			if fact == nil {
				return
			}
			sp := &SpawnSite{
				Pos:      nd.Pos(),
				Call:     nd,
				Captured: map[types.Object]bool{},
				InLoop:   inLoopStack(stack),
			}
			for j, arg := range callArgsWithRecv(site.Callee.Fn, nd) {
				if j < len(fact.Params) && fact.Params[j] {
					capturePointerLike(info, arg, declSpan, sp.Captured)
				}
			}
			if len(sp.Captured) > 0 {
				esc.Sites = append(esc.Sites, sp)
			}
		case *ast.SendStmt:
			capturePointerLike(info, nd.Value, declSpan, esc.ChanSent)
		}
	})
	return esc
}

type span struct{ pos, end token.Pos }

func (s span) contains(p token.Pos) bool { return s.pos <= p && p < s.end }

// captureFreeVars records the closure's free variables: objects used in
// the literal's body but declared outside it, within the enclosing
// declaration. Closures capture these by reference, so every type
// counts.
func captureFreeVars(info *types.Info, lit *ast.FuncLit, declSpan span, out map[types.Object]bool) {
	litSpan := span{lit.Pos(), lit.End()}
	ast.Inspect(lit.Body, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		if declSpan.contains(obj.Pos()) && !litSpan.contains(obj.Pos()) {
			out[obj] = true
		}
		return true
	})
}

// capturePointerLike records function-local pointer-like objects
// mentioned in e (an &x also captures x: the address crosses the spawn).
func capturePointerLike(info *types.Info, e ast.Expr, declSpan span, out map[types.Object]bool) {
	ast.Inspect(e, func(nd ast.Node) bool {
		if isFuncLit(nd) {
			return false
		}
		switch nd := nd.(type) {
		case *ast.UnaryExpr:
			if nd.Op == token.AND {
				if id, ok := ast.Unparen(nd.X).(*ast.Ident); ok {
					if obj, ok := info.Uses[id].(*types.Var); ok && !obj.IsField() && declSpan.contains(obj.Pos()) {
						out[obj] = true
					}
				}
			}
		case *ast.Ident:
			obj, ok := info.Uses[nd].(*types.Var)
			if !ok || obj.IsField() || !declSpan.contains(obj.Pos()) {
				return true
			}
			if pointerLike(obj.Type()) {
				out[obj] = true
			}
		}
		return true
	})
}

// pointerLike reports whether values of t share state when copied.
func pointerLike(t types.Type) bool {
	switch typeUnder(t).(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// inLoopStack reports whether the stack crosses a for/range statement
// inside the innermost function body.
func inLoopStack(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncDecl, *ast.FuncLit:
			// keep scanning: a go inside a closure inside a loop still has
			// several live instances
		}
	}
	return false
}

// parentNode returns the immediate parent on the stack, nil at the root.
func parentNode(stack []ast.Node) ast.Node {
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

// walkNodeStack is walkStack generalized to any root node.
func walkNodeStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}
