package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lockio flags blocking operations lexically reachable while a sync.Mutex or
// sync.RWMutex is held — the exact bug class the async transport rewrite
// fixed, where a wedged peer's 10-second network write under sendConn.mu
// stalled every sender. Within one function body, walked in source order by
// the shared body walker (walk.go), after `x.Lock()`/`x.RLock()` and before
// the matching unlock, it reports:
//
//   - channel sends, channel receives, range over a channel, and select
//     statements without a default clause (a select with default is a
//     non-blocking attempt and passes clean);
//   - time.Sleep, (*sync.WaitGroup).Wait, (*sync.Cond).Wait;
//   - net.Dial* calls, Accept on a net.Listener, and Read/Write on any
//     value satisfying net.Conn.
//
// A deferred unlock holds to function end, and a deferred call that blocks
// is reported when the defers replay with the lock still held. The operands
// of `go` and `defer` statements are evaluated under the caller's locks.
// Other function literals are separate scopes: a goroutine body spawned
// under a lock does not block the lock holder, and the literal is analyzed
// with its own empty lock state. The analysis is lexical, not path-sensitive
// — a site that provably releases first carries a `//lint:lockio <why>`
// waiver.
var Lockio = &Analyzer{
	Name: "lockio",
	Doc:  "flag blocking calls (network I/O, channel ops, sleeps, waits) reachable while a sync mutex is held",
	Run:  runLockio,
}

func runLockio(pass *Pass) error {
	conn, listener := netInterfaces(pass.Pkg)
	var scopes []*ast.BlockStmt
	w := &bodyWalker{}
	report := func(pos token.Pos, what string) {
		if len(w.held) == 0 {
			return
		}
		h := w.held[len(w.held)-1]
		pass.Reportf(pos, "%s while %s is held (locked at %s): blocking under a mutex stalls every contender — release first or hand off to a worker",
			what, h.key, sitePos(pass.Fset, h.pos))
	}
	w.block = func(n ast.Node, what string) { report(n.Pos(), what) }
	w.call = func(call *ast.CallExpr, fn *types.Func) {
		if what := blockingCall(fn, conn, listener); what != "" {
			report(call.Pos(), what)
		}
	}
	w.lit = func(lit *ast.FuncLit) { scopes = append(scopes, lit.Body) }
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				scopes = append(scopes, fd.Body)
			}
		}
	}
	for len(scopes) > 0 {
		body := scopes[0]
		scopes = scopes[1:]
		w.walkBody(pass.TypesInfo, body)
	}
	return nil
}
