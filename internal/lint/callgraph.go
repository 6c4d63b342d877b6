package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// A FuncNode is one function in the module call graph: a declared function or
// method (Decl != nil), a function literal (Lit != nil), or a callee outside
// the analyzed packages (both nil — standard-library functions and interface
// methods, which exist as nodes so the facts layer can classify them by full
// name and route interface dispatch through them). Fact fields are zero until
// computeFacts runs (see facts.go).
type FuncNode struct {
	// Name is the printable identity: types.Func.FullName for declared and
	// external functions, "<encloser>$func@file:line" for literals.
	Name string
	// Obj is the declared object; nil for function literals.
	Obj *types.Func
	// Decl is the syntax of an in-module declared function; nil otherwise.
	Decl *ast.FuncDecl
	// Lit is the syntax of a function literal; nil otherwise.
	Lit *ast.FuncLit
	// Pkg is the owning in-module package; nil for external callees.
	Pkg *Package
	// Edges are the outgoing calls in source order. An interface method node
	// carries Iface edges to every in-module implementation, so dispatch is
	// one hop through the method node rather than a fan-out at every caller.
	Edges []CallEdge

	// Facts — conservative per-function summaries propagated to a fixpoint
	// over the graph by computeFacts.

	// MayBlock reports that calling this function can park the caller: a
	// channel operation, select without default, net I/O, sleep, or wait,
	// directly or through any non-go call edge.
	MayBlock bool
	// RandClock reports that this function draws from global math/rand,
	// math/rand/v2, crypto/rand, or reads the wall clock / arms real timers,
	// directly or through any call edge (go statements included: a spawned
	// goroutine's draws still shape program behavior).
	RandClock bool
	// Acquires maps each sync mutex object this function may lock — here or
	// through any non-go call edge — to one representative acquisition
	// position. Keys are the types.Object of the mutex expression, so two
	// instances of the same struct field unify (documented imprecision; the
	// lock-order analysis ignores self-edges for exactly this reason).
	Acquires map[types.Object]token.Pos
	// LeakSites are blocking channel/Conn operations, here or through any
	// non-go call edge, with no recognized cancellation path. A `go`
	// statement whose spawned body carries leak sites is a goroleak finding.
	LeakSites []LeakSite

	// blockSite is the first direct blocking site found in this body (or the
	// classification of an external), for building human-readable chains.
	blockSite *factSite
	// randSite is the analogous direct rand/clock classification.
	randSite *factSite
}

// A LeakSite is one blocking operation with no recognized cancellation path:
// no sibling select arm, no traceable close of the channel, no Close call on
// the Conn/Listener in the owning package.
type LeakSite struct {
	Pos  token.Pos
	What string
}

// A factSite records where and why a direct fact was established.
type factSite struct {
	pos  token.Pos
	what string
}

// A CallEdge is one resolved call from a FuncNode.
type CallEdge struct {
	Callee *FuncNode
	// Pos is the call position in the caller; NoPos on the synthetic
	// dispatch edges from an interface method to its implementations.
	Pos token.Pos
	// Go marks an edge from a `go` statement (or a time.AfterFunc callback):
	// the spawned goroutine, not the caller, runs the callee, so may-block,
	// lock and leak facts do not flow back across it — only rand/clock taint
	// does.
	Go bool
	// Iface marks an edge resolved through interface dispatch
	// (types.Implements over every in-module named type).
	Iface bool
}

// A CallGraph is the conservative static call graph over one load: every
// declared function and function literal of the analyzed packages, plus
// external and interface-method nodes reached from them. Calls through plain
// function values (fields, parameters, locals) are NOT resolved — that is the
// documented imprecision of the graph; the two higher-order stdlib idioms the
// tree actually uses, (*sync.Once).Do and time.AfterFunc with a literal
// callback, are special-cased as direct and go edges respectively.
type CallGraph struct {
	// Nodes lists every node in deterministic order: declared functions in
	// package/file/declaration order, then literals and externals in the
	// order the body walk encountered them.
	Nodes []*FuncNode

	funcs map[*types.Func]*FuncNode
	lits  map[*ast.FuncLit]*FuncNode
	calls map[*ast.CallExpr][]*FuncNode

	named []*types.Named // in-module concrete named types, for dispatch
}

// NodeOf returns the graph node for a declared function, or nil.
func (g *CallGraph) NodeOf(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return g.funcs[fn.Origin()]
}

// CalleesOf returns the resolved callees of one call expression (empty for
// dynamic calls through function values).
func (g *CallGraph) CalleesOf(call *ast.CallExpr) []*FuncNode {
	return g.calls[call]
}

// graphBuilder accumulates the call graph over one package set.
type graphBuilder struct {
	g     *CallGraph
	owner map[*FuncNode]*Package // current package per body being walked
}

// buildCallGraph constructs the call graph over pkgs. The packages must share
// one type universe (the Load/LoadFixtureTree guarantee) so *types.Func
// identity holds across package boundaries.
func buildCallGraph(pkgs []*Package) *CallGraph {
	b := &graphBuilder{g: &CallGraph{
		funcs: map[*types.Func]*FuncNode{},
		lits:  map[*ast.FuncLit]*FuncNode{},
		calls: map[*ast.CallExpr][]*FuncNode{},
	}}

	// Pass 1: a node per declared function, and the concrete named types
	// that interface dispatch resolves against. Scope().Names() is sorted,
	// and pkgs arrive sorted by import path, so both orders are stable.
	type declared struct {
		node *FuncNode
		pkg  *Package
	}
	var bodies []declared
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &FuncNode{Name: obj.FullName(), Obj: obj, Decl: fd, Pkg: pkg}
				b.g.funcs[obj] = n
				b.g.Nodes = append(b.g.Nodes, n)
				if fd.Body != nil {
					bodies = append(bodies, declared{n, pkg})
				}
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if types.IsInterface(named) {
				continue
			}
			b.g.named = append(b.g.named, named)
		}
	}

	// Pass 2: resolve every call in every body.
	for _, d := range bodies {
		b.walkBody(d.node, d.pkg, d.node.Decl.Body)
	}
	return b.g
}

// walkBody resolves the calls of one function body (or a sub-expression of
// it), attributing them to owner. Nested function literals become their own
// nodes with their own edges.
func (b *graphBuilder) walkBody(owner *FuncNode, pkg *Package, root ast.Node) {
	if root == nil {
		return
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Defining a literal adds no edge by itself; edges appear where
			// it is invoked, spawned, or handed to a special-cased invoker.
			b.litNode(owner, pkg, n)
			return false
		case *ast.GoStmt:
			b.addCall(owner, pkg, n.Call, true)
			for _, arg := range n.Call.Args {
				b.walkBody(owner, pkg, arg)
			}
			return false
		case *ast.CallExpr:
			b.addCall(owner, pkg, n, false)
			return true
		}
		return true
	})
}

// litNode returns (creating on first sight) the node for a function literal
// and walks its body.
func (b *graphBuilder) litNode(owner *FuncNode, pkg *Package, lit *ast.FuncLit) *FuncNode {
	if n := b.g.lits[lit]; n != nil {
		return n
	}
	pos := pkg.Fset.Position(lit.Pos())
	n := &FuncNode{
		Name: fmt.Sprintf("%s$func@%s:%d", owner.Name, filepath.Base(pos.Filename), pos.Line),
		Lit:  lit,
		Pkg:  pkg,
	}
	b.g.lits[lit] = n
	b.g.Nodes = append(b.g.Nodes, n)
	b.walkBody(n, pkg, lit.Body)
	return n
}

// addCall resolves one call expression to graph edges from owner. isGo marks
// edges from `go` statements.
func (b *graphBuilder) addCall(owner *FuncNode, pkg *Package, call *ast.CallExpr, isGo bool) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		callee := b.litNode(owner, pkg, lit)
		owner.Edges = append(owner.Edges, CallEdge{Callee: callee, Pos: call.Pos(), Go: isGo})
		b.g.calls[call] = append(b.g.calls[call], callee)
	} else if fn := calleeFunc(pkg.TypesInfo, call); fn != nil {
		// A nil callee is a dynamic call through a function value, a
		// builtin or a conversion: no edge.
		b.linkResolved(owner, pkg, call, fn, isGo)
	}
}

// linkResolved records an edge to a resolved callee and applies the two
// higher-order special cases: (*sync.Once).Do runs its argument synchronously
// (a direct edge) and time.AfterFunc runs it on a timer goroutine (a go
// edge). Everything else that takes a function value is a documented hole.
func (b *graphBuilder) linkResolved(owner *FuncNode, pkg *Package, call *ast.CallExpr, fn *types.Func, isGo bool) {
	callee := b.fnNode(fn)
	owner.Edges = append(owner.Edges, CallEdge{Callee: callee, Pos: call.Pos(), Go: isGo})
	b.g.calls[call] = append(b.g.calls[call], callee)

	var cbArg ast.Expr
	var cbGo bool
	switch callee.Name {
	case "(*sync.Once).Do":
		if len(call.Args) == 1 {
			cbArg, cbGo = call.Args[0], isGo
		}
	case "time.AfterFunc":
		if len(call.Args) == 2 {
			cbArg, cbGo = call.Args[1], true
		}
	}
	if cbArg == nil {
		return
	}
	switch cb := ast.Unparen(cbArg).(type) {
	case *ast.FuncLit:
		owner.Edges = append(owner.Edges, CallEdge{Callee: b.litNode(owner, pkg, cb), Pos: call.Pos(), Go: cbGo})
	case *ast.Ident:
		if f, ok := pkg.TypesInfo.Uses[cb].(*types.Func); ok {
			owner.Edges = append(owner.Edges, CallEdge{Callee: b.fnNode(f), Pos: call.Pos(), Go: cbGo})
		}
	case *ast.SelectorExpr:
		if sel := pkg.TypesInfo.Selections[cb]; sel != nil {
			if f, ok := sel.Obj().(*types.Func); ok {
				owner.Edges = append(owner.Edges, CallEdge{Callee: b.fnNode(f), Pos: call.Pos(), Go: cbGo})
			}
		}
	}
}

// fnNode returns (creating on first sight) the node for a declared, external,
// or interface-method function. An interface method node gets dispatch edges
// to every in-module implementation the moment it is created.
func (b *graphBuilder) fnNode(fn *types.Func) *FuncNode {
	fn = fn.Origin()
	if n := b.g.funcs[fn]; n != nil {
		return n
	}
	n := &FuncNode{Name: fn.FullName(), Obj: fn}
	b.g.funcs[fn] = n
	b.g.Nodes = append(b.g.Nodes, n)
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		b.resolveDispatch(n, sig.Recv().Type())
	}
	return n
}

// resolveDispatch adds Iface edges from an interface method node to the
// corresponding method of every in-module named type that implements the
// interface (via types.Implements, trying both T and *T).
func (b *graphBuilder) resolveDispatch(n *FuncNode, recv types.Type) {
	iface, _ := recv.Underlying().(*types.Interface)
	if iface == nil {
		return
	}
	for _, named := range b.g.named {
		var rt types.Type
		switch {
		case types.Implements(named, iface):
			rt = named
		case types.Implements(types.NewPointer(named), iface):
			rt = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(rt, true, n.Obj.Pkg(), n.Obj.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		target := b.fnNode(m)
		if target == n {
			continue
		}
		n.Edges = append(n.Edges, CallEdge{Callee: target, Iface: true})
	}
}
