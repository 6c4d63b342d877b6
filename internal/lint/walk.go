package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// This file is the suite's one definition of "what blocks, and what is
// held": the blocking-call table and the source-order body walker that
// lockio, lockorder and the fact scan (facts.go) all drive. The walker owns
// each statement rule once: `go` and `defer` operands are evaluated in the
// caller; deferred calls replay last-in-first-out at each return and at the
// end of the body, against a copy of the held set (so `defer mu.Unlock()`
// holds mu to function end and a closure deferred after it runs with mu
// held); a deferred function literal is entered only there, and every other
// literal is a separate scope; a select blocks only without a default
// clause. The analysis is lexical, not path-sensitive.

// lockMethods classifies sync mutex methods by full name: true = acquire,
// false = release.
var lockMethods = map[string]bool{
	"(*sync.Mutex).Lock":      true,
	"(*sync.Mutex).Unlock":    false,
	"(*sync.RWMutex).Lock":    true,
	"(*sync.RWMutex).Unlock":  false,
	"(*sync.RWMutex).RLock":   true,
	"(*sync.RWMutex).RUnlock": false,
}

// blockingCalls are the calls that park the caller by full name, besides
// the net.Dial* functions and Conn/Listener I/O that blockingCall matches by
// shape.
var blockingCalls = map[string]string{
	"time.Sleep":             "time.Sleep",
	"(*sync.WaitGroup).Wait": "sync.WaitGroup.Wait",
	"(*sync.Cond).Wait":      "sync.Cond.Wait",
}

// blockingCall names the blocking operation a call to fn performs, or ""
// when it does not block: time.Sleep, WaitGroup and Cond waits, net.Dial*,
// Read/Write on anything satisfying net.Conn and Accept on a net.Listener.
func blockingCall(fn *types.Func, conn, listener *types.Interface) string {
	if fn == nil {
		return ""
	}
	full := fn.FullName()
	if what, ok := blockingCalls[full]; ok {
		return what
	}
	if strings.HasPrefix(full, "net.Dial") {
		return full
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	switch recv := sig.Recv().Type(); fn.Name() {
	case "Read", "Write":
		if implementsIface(recv, conn) {
			return "net.Conn." + fn.Name()
		}
	case "Accept":
		if implementsIface(recv, listener) {
			return "net.Listener.Accept"
		}
	}
	return ""
}

// netInterfaces resolves net.Conn and net.Listener from the package's import
// graph; both are nil when the package never reaches net.
func netInterfaces(pkg *types.Package) (conn, listener *types.Interface) {
	seen := map[*types.Package]bool{}
	for stack := []*types.Package{pkg}; len(stack) > 0; {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p.Path() == "net" {
			iface := func(name string) *types.Interface {
				t, _ := p.Scope().Lookup(name).Type().Underlying().(*types.Interface)
				return t
			}
			return iface("Conn"), iface("Listener")
		}
		for _, imp := range p.Imports() {
			if !seen[imp] {
				seen[imp] = true
				stack = append(stack, imp)
			}
		}
	}
	return nil, nil
}

// implementsIface reports whether t (or *t) satisfies iface.
func implementsIface(t types.Type, iface *types.Interface) bool {
	if iface == nil || t == nil {
		return false
	}
	if types.Implements(t, iface) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}

// calleeFunc resolves the static callee of a call: a declared function,
// a qualified package function or a method. It returns nil for calls through
// function values, builtins and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			fn, _ := sel.Obj().(*types.Func) // nil for func-typed fields
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// sitePos renders a position inside a finding's message as
// "file.go:line:col": the base name keeps the message the same in every
// checkout, and the finding's own position already carries the directory.
func sitePos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d:%d", filepath.Base(p.Filename), p.Line, p.Column)
}

// A heldLock is one mutex the walked body holds.
type heldLock struct {
	key string       // the mutex expression as written; a release matches on it
	obj types.Object // the mutex variable or field, nil for dynamic expressions
	pos token.Pos    // the Lock call
}

// A bodyWalker walks function bodies in source order, keeping the held set
// and calling its hooks; nil hooks are skipped.
type bodyWalker struct {
	info *types.Info

	// block is called at each operation that can park the goroutine: n is
	// the *ast.SendStmt, the receive *ast.UnaryExpr, the *ast.RangeStmt
	// over a channel, or the *ast.SelectStmt without default.
	block func(n ast.Node, what string)
	// acquire is called for each Lock/RLock, before the lock joins held.
	acquire func(l heldLock)
	// call is called for every call that is not a mutex operation, with its
	// static callee (nil when dynamic), after its operands are walked.
	call func(call *ast.CallExpr, fn *types.Func)
	// lit is called for each function literal that is not the function of
	// a deferred call; the walker does not enter it.
	lit func(lit *ast.FuncLit)

	held   []heldLock
	defers []*ast.CallExpr
}

// walkBody walks one function body of a package with nothing held.
func (w *bodyWalker) walkBody(info *types.Info, body *ast.BlockStmt) {
	w.info, w.held = info, nil
	w.walkFunc(body)
}

// walkFunc walks one function body as a scope of its own: it keeps the
// current held set, registers the body's own deferred calls and replays
// them at its returns and its end.
func (w *bodyWalker) walkFunc(body *ast.BlockStmt) {
	outer := w.defers
	w.defers = nil
	w.walk(body)
	w.runDefers()
	w.defers = outer
}

func (w *bodyWalker) walk(root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if w.lit != nil {
				w.lit(n)
			}
			return false
		case *ast.GoStmt:
			w.operands(n.Call, true)
			return false
		case *ast.DeferStmt:
			w.operands(n.Call, false)
			w.defers = append(w.defers, n.Call)
			return false
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				w.walk(r)
			}
			w.runDefers()
			return false
		case *ast.SelectStmt:
			blocking := true
			for _, c := range n.Body.List {
				if c.(*ast.CommClause).Comm == nil {
					blocking = false
				}
			}
			if blocking {
				w.blocked(n, "select without default")
			}
			for _, c := range n.Body.List {
				for _, stmt := range c.(*ast.CommClause).Body {
					w.walk(stmt)
				}
			}
			return false
		case *ast.SendStmt:
			w.blocked(n, "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.blocked(n, "channel receive")
			}
		case *ast.RangeStmt:
			if t := w.info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					w.blocked(n, "range over channel")
				}
			}
		case *ast.CallExpr:
			w.walk(n.Fun)
			for _, arg := range n.Args {
				w.walk(arg)
			}
			w.apply(n)
			return false
		}
		return true
	})
}

// operands walks what a go or defer statement evaluates in the caller: the
// receiver or function expression and the arguments. A go statement's
// function literal is a separate scope; a deferred one waits for runDefers.
func (w *bodyWalker) operands(call *ast.CallExpr, spawned bool) {
	if _, isLit := ast.Unparen(call.Fun).(*ast.FuncLit); spawned || !isLit {
		w.walk(call.Fun)
	}
	for _, arg := range call.Args {
		w.walk(arg)
	}
}

// runDefers replays the pending deferred calls last-in-first-out against a
// copy of the held set.
func (w *bodyWalker) runDefers() {
	saved := append([]heldLock(nil), w.held...)
	pending := w.defers
	for i := len(pending) - 1; i >= 0; i-- {
		if lit, ok := ast.Unparen(pending[i].Fun).(*ast.FuncLit); ok {
			w.walkFunc(lit.Body)
		} else {
			w.apply(pending[i])
		}
	}
	w.held = saved
}

// apply performs one call whose operands are already evaluated: mutex
// bookkeeping for Lock/Unlock methods, the call hook for everything else.
func (w *bodyWalker) apply(call *ast.CallExpr) {
	fn := calleeFunc(w.info, call)
	acquire, isLock := false, false
	if fn != nil {
		acquire, isLock = lockMethods[fn.FullName()]
	}
	if !isLock {
		if w.call != nil {
			w.call(call, fn)
		}
		return
	}
	// A mutex method resolves only through a selector: x.Lock().
	x := ast.Unparen(call.Fun).(*ast.SelectorExpr).X
	l := heldLock{key: types.ExprString(x), obj: exprObj(w.info, x), pos: call.Pos()}
	if acquire {
		if w.acquire != nil {
			w.acquire(l)
		}
		w.held = append(w.held, l)
		return
	}
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i].key == l.key {
			w.held = append(w.held[:i:i], w.held[i+1:]...)
			return
		}
	}
}

func (w *bodyWalker) blocked(n ast.Node, what string) {
	if w.block != nil {
		w.block(n, what)
	}
}
