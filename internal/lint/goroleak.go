package lint

import (
	"go/token"
)

// Goroleak enforces that every spawned goroutine has a shutdown path: a `go`
// statement whose body — directly or through any chain of non-go calls — can
// block on a channel operation or on net.Conn/Listener I/O must have a
// recognized cancellation route for each such site. The facts layer
// (facts.go) recognizes four routes: a sibling select arm able to unblock the
// wait (the done-channel pattern), a close() of the awaited channel anywhere
// in the loaded packages, a buffered handoff channel for single-shot sends,
// and — for Conn/Listener I/O — a Close call on a Conn/Listener value in the
// owning package. A blocking site with none of these is a leak site, and the
// `go` statement that can reach one is the finding: the lazily spawned
// writer that outlives its transport, the reader pump nothing ever stops.
// Sleeps and WaitGroup waits are out of scope — they end on their own.
var Goroleak = &ModuleAnalyzer{
	Name: "goroleak",
	Doc:  "every `go` statement whose body can block on a channel or net.Conn must have a reachable cancellation path (select arm, traceable close, owner-side Close)",
	Run:  runGoroleak,
}

func runGoroleak(pass *ModulePass) error {
	for _, n := range pass.Module.Graph.Nodes {
		if nodeBody(n) == nil {
			continue
		}
		seen := map[token.Pos]bool{}
		for _, e := range n.Edges {
			if !e.Go || len(e.Callee.LeakSites) == 0 || seen[e.Pos] {
				continue
			}
			seen[e.Pos] = true
			s := e.Callee.LeakSites[0]
			pass.Reportf(e.Pos,
				"goroutine spawned here can block forever: %s at %s has no reachable cancellation path — add a done-channel select arm, close the channel from its owner, or Close the conn on shutdown",
				s.What, sitePos(pass.Module.Fset, s.Pos))
		}
	}
	return nil
}
