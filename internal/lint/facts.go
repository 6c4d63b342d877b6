package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
)

// This file computes the per-function facts of the interprocedural layer —
// the stdlib-only analogue of x/tools analysis facts. Each FuncNode gets
// conservative summaries (MayBlock, RandClock, Acquires, LeakSites)
// established directly from its body or its external classification, then
// propagated to a fixpoint over the call graph. The propagation rules differ
// by fact, and the difference is the point:
//
//   - MayBlock and Acquires flow over non-go edges only: a `go` statement
//     does not block its spawner and its locks are taken on another
//     goroutine.
//   - RandClock flows over every edge, go included: a spawned goroutine's
//     random draws and clock reads still shape program behavior, which is
//     exactly the laundering hole detflow closes.
//   - LeakSites flow over non-go edges: a nested `go` statement gets its own
//     goroleak verdict at its own spawn site rather than leaking into the
//     outer body's summary.

// leakSiteCap bounds the LeakSites summary per function; one finding per go
// statement is reported anyway, so the tail carries no extra signal.
const leakSiteCap = 8

// computeFacts establishes direct facts and propagates them to a fixpoint.
func computeFacts(g *CallGraph, pkgs []*Package) {
	pre := preScan(pkgs)
	scan := newFactScan(pre)
	for _, n := range g.Nodes {
		if body := nodeBody(n); body != nil {
			scan.node = n
			scan.walkBody(n.Pkg.TypesInfo, body)
		} else {
			classifyExternal(n, pre)
		}
	}

	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			for _, e := range n.Edges {
				c := e.Callee
				if c.RandClock && !n.RandClock {
					n.RandClock = true
					changed = true
				}
				if e.Go {
					continue
				}
				if c.MayBlock && !n.MayBlock {
					n.MayBlock = true
					changed = true
				}
				for obj, pos := range c.Acquires {
					if _, ok := n.Acquires[obj]; !ok {
						if n.Acquires == nil {
							n.Acquires = map[types.Object]token.Pos{}
						}
						n.Acquires[obj] = pos
						changed = true
					}
				}
				if mergeLeaks(n, c.LeakSites) {
					changed = true
				}
			}
		}
	}
}

// mergeLeaks appends callee leak sites not already present, up to the cap.
func mergeLeaks(n *FuncNode, sites []LeakSite) bool {
	changed := false
	for _, s := range sites {
		if len(n.LeakSites) >= leakSiteCap {
			return changed
		}
		if !slices.ContainsFunc(n.LeakSites, func(have LeakSite) bool { return have.Pos == s.Pos }) {
			n.LeakSites = append(n.LeakSites, s)
			changed = true
		}
	}
	return changed
}

// preScanned carries the module-wide context the body scans consult:
// cancellation evidence for goroleak and the net interfaces for I/O
// classification.
type preScanned struct {
	conn     *types.Interface
	listener *types.Interface
	// closedChans holds every channel object that is the argument of a
	// close() call anywhere in the loaded packages: a receive or range on it
	// has a traceable owner-side shutdown path.
	closedChans map[types.Object]bool
	// bufferedChans holds channel objects assigned from make(chan T, n) with
	// constant n > 0: a single-shot send on a buffered handoff channel
	// cannot park the sender.
	bufferedChans map[types.Object]bool
	// closesConn marks packages that call Close on a net.Conn or
	// net.Listener value: Conn I/O in such a package has an owner able to
	// unblock it.
	closesConn map[*Package]bool
}

// preScan walks every file once to collect the cancellation evidence.
func preScan(pkgs []*Package) *preScanned {
	pre := &preScanned{
		closedChans:   map[types.Object]bool{},
		bufferedChans: map[types.Object]bool{},
		closesConn:    map[*Package]bool{},
	}
	for _, pkg := range pkgs {
		if pre.conn == nil {
			pre.conn, pre.listener = netInterfaces(pkg.Types)
		}
	}
	for _, pkg := range pkgs {
		info := pkg.TypesInfo
		for _, f := range pkg.Syntax {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
						if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(n.Args) == 1 {
							if obj := exprObj(info, n.Args[0]); obj != nil {
								pre.closedChans[obj] = true
							}
						}
					}
					if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
						if selection := info.Selections[sel]; selection != nil {
							recv := selection.Recv()
							if implementsIface(recv, pre.conn) || implementsIface(recv, pre.listener) {
								pre.closesConn[pkg] = true
							}
						}
					}
				case *ast.AssignStmt:
					if len(n.Lhs) == len(n.Rhs) {
						for i, rhs := range n.Rhs {
							if isBufferedMake(info, rhs) {
								if obj := exprObj(info, n.Lhs[i]); obj != nil {
									pre.bufferedChans[obj] = true
								}
							}
						}
					}
				case *ast.ValueSpec:
					if len(n.Names) == len(n.Values) {
						for i, v := range n.Values {
							if isBufferedMake(info, v) {
								if obj := info.Defs[n.Names[i]]; obj != nil {
									pre.bufferedChans[obj] = true
								}
							}
						}
					}
				}
				return true
			})
		}
	}
	return pre
}

// isBufferedMake reports whether e is make(chan T, n) with constant n > 0.
func isBufferedMake(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	if _, isChan := info.Types[call.Args[0]].Type.Underlying().(*types.Chan); !isChan {
		return false
	}
	tv := info.Types[call.Args[1]]
	if tv.Value == nil {
		return false
	}
	return tv.Value.String() != "0"
}

// exprObj resolves the types.Object an expression names: an identifier's use,
// or the field/method object of a selector. Returns nil for anything more
// dynamic (index expressions, call results).
func exprObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		if sel := info.Selections[e]; sel != nil {
			return sel.Obj()
		}
		return info.Uses[e.Sel]
	}
	return nil
}

// classifyExternal assigns direct facts to out-of-module (and interface
// method) nodes by full name and receiver type: the blocking-call table
// lockio uses (walk.go) and detrand's rand/clock tables.
func classifyExternal(n *FuncNode, pre *preScanned) {
	if n.Obj == nil {
		return
	}
	sig, _ := n.Obj.Type().(*types.Signature)

	if what := blockingCall(n.Obj, pre.conn, pre.listener); what != "" {
		n.setBlock(token.NoPos, what)
	}

	// Rand/clock classification (detrand's tables). Methods on explicit
	// math/rand streams (rand.Rand, rand.Source) stay clean — seeded streams
	// are the sanctioned mechanism, so only package-level draws taint.
	if pkg := n.Obj.Pkg(); pkg != nil {
		name := n.Obj.Name()
		switch pkg.Path() {
		case "math/rand":
			if sig != nil && sig.Recv() == nil && !detrandAllowedRand[name] {
				n.setRand("math/rand." + name)
			}
		case "math/rand/v2", "crypto/rand":
			n.setRand(pkg.Path() + "." + name)
		case "time":
			if sig != nil && sig.Recv() == nil && detrandForbiddenTime[name] {
				n.setRand("time." + name)
			}
		}
	}
}

func (n *FuncNode) setBlock(pos token.Pos, what string) {
	n.MayBlock = true
	if n.blockSite == nil {
		n.blockSite = &factSite{pos: pos, what: what}
	}
}

func (n *FuncNode) setRand(what string) {
	n.RandClock = true
	if n.randSite == nil {
		n.randSite = &factSite{what: what}
	}
}

// A factScan establishes the direct syntactic facts of in-module bodies
// through the shared body walker: channel operations (blocking and possibly
// leaking), select shapes, mutex acquisitions and Conn/Listener leak sites.
// Calls contribute their callee's facts through graph edges, not here, and
// every function literal is a node of its own, so the walker's lit hook is
// left unset.
type factScan struct {
	bodyWalker
	node *FuncNode
}

func newFactScan(pre *preScanned) *factScan {
	s := &factScan{}
	leak := func(pos token.Pos, what string, ch ast.Expr, cancelled map[types.Object]bool) {
		if !cancelled[exprObj(s.info, ch)] {
			s.node.addLeak(pos, what)
		}
	}
	s.block = func(n ast.Node, what string) {
		s.node.setBlock(n.Pos(), what)
		switch n := n.(type) {
		case *ast.SendStmt:
			leak(n.Pos(), what, n.Chan, pre.bufferedChans)
		case *ast.UnaryExpr:
			leak(n.Pos(), what, n.X, pre.closedChans)
		case *ast.RangeStmt:
			leak(n.Pos(), what, n.X, pre.closedChans)
		case *ast.SelectStmt:
			// Two or more comm clauses mean every arm has a sibling able to
			// unblock the wait (the done-channel pattern), so none is a leak
			// site; a single-clause select is just its one operation.
			if len(n.Body.List) != 1 {
				return
			}
			switch comm := n.Body.List[0].(*ast.CommClause).Comm.(type) {
			case *ast.SendStmt:
				leak(comm.Pos(), "channel send (single-arm select)", comm.Chan, pre.bufferedChans)
			case *ast.ExprStmt:
				if ue, ok := comm.X.(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
					leak(ue.Pos(), "channel receive (single-arm select)", ue.X, pre.closedChans)
				}
			case *ast.AssignStmt:
				for _, rhs := range comm.Rhs {
					if ue, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
						leak(ue.Pos(), "channel receive (single-arm select)", ue.X, pre.closedChans)
					}
				}
			}
		}
	}
	s.acquire = func(l heldLock) {
		if l.obj == nil {
			return
		}
		if s.node.Acquires == nil {
			s.node.Acquires = map[types.Object]token.Pos{}
		}
		if _, have := s.node.Acquires[l.obj]; !have {
			s.node.Acquires[l.obj] = l.pos
		}
	}
	// Conn/Listener I/O blocks through the graph edge to the external node;
	// whether it can leak depends on the owning package closing its conns.
	s.call = func(call *ast.CallExpr, fn *types.Func) {
		switch what := blockingCall(fn, pre.conn, pre.listener); what {
		case "net.Conn.Read", "net.Conn.Write", "net.Listener.Accept":
			if !pre.closesConn[s.node.Pkg] {
				s.node.addLeak(call.Pos(), what)
			}
		}
	}
	return s
}

// addLeak records one direct leak site, respecting the cap.
func (n *FuncNode) addLeak(pos token.Pos, what string) {
	mergeLeaks(n, []LeakSite{{Pos: pos, What: what}})
}

// blockChain renders why n may block as a human-readable call chain ending at
// the establishing site, e.g. "(*node.Node).Close → sync.WaitGroup.Wait".
func blockChain(n *FuncNode) string {
	return factChain(n,
		func(m *FuncNode) *factSite { return m.blockSite },
		func(e CallEdge) bool { return !e.Go && e.Callee.MayBlock })
}

// randChain renders why n is rand/clock-tainted as a call chain.
func randChain(n *FuncNode) string {
	return factChain(n,
		func(m *FuncNode) *factSite { return m.randSite },
		func(e CallEdge) bool { return e.Callee.RandClock })
}

// factChain walks greedily from n along edges satisfying follow until a node
// with a direct site, collecting names.
func factChain(n *FuncNode, site func(*FuncNode) *factSite, follow func(CallEdge) bool) string {
	var parts []string
	seen := map[*FuncNode]bool{}
	cur := n
	for cur != nil && !seen[cur] {
		seen[cur] = true
		if s := site(cur); s != nil {
			// External classifications (NoPos sites) are already named by
			// their what — "sync.WaitGroup.Wait" — so the node name would
			// just repeat it.
			if cur != n && s.pos != token.NoPos {
				parts = append(parts, cur.Name)
			}
			parts = append(parts, s.what)
			return strings.Join(parts, " → ")
		}
		var next *FuncNode
		for _, e := range cur.Edges {
			if follow(e) {
				next = e.Callee
				break
			}
		}
		if next != nil && cur != n {
			parts = append(parts, cur.Name)
		}
		cur = next
	}
	return strings.Join(parts, " → ")
}

// lockName renders a mutex object for messages: its name plus declaration
// site, so "mu" fields of different structs stay distinguishable.
func lockName(fset *token.FileSet, obj types.Object) string {
	pos := fset.Position(obj.Pos())
	return fmt.Sprintf("%s (declared at %s:%d)", obj.Name(), filepath.Base(pos.Filename), pos.Line)
}
