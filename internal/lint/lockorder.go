package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Lockorder is the interprocedural half of the locking contract, in two
// parts. First, it builds the module-wide lock-acquisition ordering graph:
// whenever lock B is acquired — lexically, or anywhere inside a callee
// reached through non-go call edges — while lock A is held, the graph gains
// the edge A→B. A cycle between two distinct mutex objects means two code
// paths acquire the same pair of locks in opposite orders: a potential
// deadlock that no single-package analysis can see. Second, it makes lockio
// transitive: calling an in-module function whose summary says may-block
// while any mutex is held is a finding, even though the blocking site is
// several calls and packages away. Direct blocking syntax under a lock stays
// lockio's report (one finding per site, not two); lockorder only reports
// call edges into in-module code, which is exactly what lockio cannot see.
//
// Lock identity is the types.Object of the mutex expression, so the same
// struct field on two different instances unifies; for that reason self-edges
// (A→A) are ignored rather than reported — hand-over-hand locking of sibling
// instances is legitimate and instance identity is beyond a static pass.
var Lockorder = &ModuleAnalyzer{
	Name: "lockorder",
	Doc:  "build the cross-package lock-acquisition ordering graph; report order cycles (potential deadlocks) and calls into may-block functions while a mutex is held",
	Run:  runLockorder,
}

// An orderEdge records one observation "to was acquired while from was held".
type orderEdge struct {
	from, to types.Object
	pos      token.Pos // the acquisition or call site that created the edge
	fn       string    // the function the observation was made in
}

func runLockorder(pass *ModulePass) error {
	g := pass.Module.Graph
	var edges []orderEdge
	var node *FuncNode
	var scopes []*FuncNode
	w := &bodyWalker{}
	// Lock identity for ordering is the mutex's types.Object; held locks
	// without one take no part.
	order := func(pos token.Pos, to types.Object) {
		for _, h := range w.held {
			if h.obj != nil && h.obj != to {
				edges = append(edges, orderEdge{from: h.obj, to: to, pos: pos, fn: node.Name})
			}
		}
	}
	w.acquire = func(l heldLock) {
		if l.obj != nil {
			order(l.pos, l.obj)
		}
	}
	// Calls made while locks are held harvest the callee summaries: every
	// lock the callee may acquire orders after every held lock, and an
	// in-module callee that may block is the transitive-lockio finding.
	w.call = func(call *ast.CallExpr, _ *types.Func) {
		var top *heldLock
		for i := range w.held {
			if w.held[i].obj != nil {
				top = &w.held[i]
			}
		}
		if top == nil {
			return
		}
		for _, callee := range g.CalleesOf(call) {
			acquired := make([]types.Object, 0, len(callee.Acquires))
			for obj := range callee.Acquires {
				acquired = append(acquired, obj)
			}
			sort.Slice(acquired, func(i, j int) bool { return acquired[i].Pos() < acquired[j].Pos() })
			for _, obj := range acquired {
				order(call.Pos(), obj)
			}
			// Transitive lockio: only in-module callees (including in-module
			// interface methods, whose summary aggregates every
			// implementation) — a direct call to a blocking stdlib function
			// under a lock is already lockio's finding.
			if callee.MayBlock && pass.Module.PkgOf(callee) != nil {
				pass.Reportf(call.Pos(),
					"calling %s while %s is held (locked at %s): it may block (%s) — blocking under a mutex stalls every contender",
					callee.Name, lockName(pass.Module.Fset, top.obj), sitePos(pass.Module.Fset, top.pos), blockChain(callee))
			}
		}
	}
	// A literal is walked as its own scope, under its own node's name.
	w.lit = func(lit *ast.FuncLit) {
		if n := g.lits[lit]; n != nil {
			scopes = append(scopes, n)
		}
	}
	for _, n := range g.Nodes {
		if n.Decl == nil || n.Decl.Body == nil {
			continue
		}
		scopes = append(scopes[:0], n)
		for len(scopes) > 0 {
			node, scopes = scopes[0], scopes[1:]
			w.walkBody(node.Pkg.TypesInfo, nodeBody(node))
		}
	}
	reportOrderCycles(pass, edges)
	return nil
}

// nodeBody returns the syntax body of an in-module node, if any.
func nodeBody(n *FuncNode) *ast.BlockStmt {
	switch {
	case n.Decl != nil:
		return n.Decl.Body
	case n.Lit != nil:
		return n.Lit.Body
	}
	return nil
}

// reportOrderCycles finds ordering inversions: pairs of distinct locks A, B
// where A→B is observed and B→…→A is reachable. Each unordered pair is
// reported once, at the earliest edge position, with both witness chains.
func reportOrderCycles(pass *ModulePass, edges []orderEdge) {
	if len(edges) == 0 {
		return
	}
	fset := pass.Module.Fset
	// Deterministic processing order.
	sort.Slice(edges, func(i, j int) bool {
		a, b := fset.Position(edges[i].pos), fset.Position(edges[j].pos)
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		// Several edges can share a call site (one call, several callee
		// locks); order them by lock identity so output stays stable.
		if fi, fj := lockName(fset, edges[i].from), lockName(fset, edges[j].from); fi != fj {
			return fi < fj
		}
		return lockName(fset, edges[i].to) < lockName(fset, edges[j].to)
	})
	adj := map[types.Object][]orderEdge{}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e)
	}
	type pairKey struct{ a, b types.Object }
	reported := map[pairKey]bool{}
	for _, e := range edges {
		if reported[pairKey{e.from, e.to}] || reported[pairKey{e.to, e.from}] {
			continue
		}
		back := findPath(adj, e.to, e.from)
		if back == nil {
			continue
		}
		reported[pairKey{e.from, e.to}] = true
		var steps []string
		for _, b := range back {
			steps = append(steps, fmt.Sprintf("%s acquired while %s held in %s at %s",
				lockName(fset, b.to), lockName(fset, b.from), b.fn, sitePos(fset, b.pos)))
		}
		pass.Reportf(e.pos,
			"lock order cycle: %s is acquired while %s is held in %s, but the reverse order exists — %s; two goroutines taking these paths concurrently can deadlock",
			lockName(fset, e.to), lockName(fset, e.from), e.fn, strings.Join(steps, "; "))
	}
}

// findPath returns the edge path from one lock to another in the ordering
// graph, or nil.
func findPath(adj map[types.Object][]orderEdge, from, to types.Object) []orderEdge {
	seen := map[types.Object]bool{from: true}
	var dfs func(cur types.Object) []orderEdge
	dfs = func(cur types.Object) []orderEdge {
		for _, e := range adj[cur] {
			if e.to == to {
				return []orderEdge{e}
			}
			if seen[e.to] {
				continue
			}
			seen[e.to] = true
			if rest := dfs(e.to); rest != nil {
				return append([]orderEdge{e}, rest...)
			}
		}
		return nil
	}
	return dfs(from)
}
