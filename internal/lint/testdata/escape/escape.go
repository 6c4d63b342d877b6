// Package escapefixture is the allocbudget fixture, a standalone module so
// the escape gate can run a real `go build -gcflags=-m` against it: Hot and
// HotSlack are marked ringcast:hotpath and leak a local to the heap (one
// escape each), Cool leaks but is unmarked (no budget entry), and HotClean
// is marked and allocation-free (budget 0).
package escapefixture

// Hot leaks its local to the heap.
//
//ringcast:hotpath
func Hot() *int {
	x := 42
	return &x
}

// Cool also escapes but carries no marker, so allocbudget ignores it.
func Cool() *int {
	x := 7
	return &x
}

// HotClean is marked and allocation-free.
//
//ringcast:hotpath
func HotClean(a, b int) int {
	return a*31 + b
}

// HotSlack leaks its local like Hot; the regression test gives it a budget
// above its count.
//
//ringcast:hotpath
func HotSlack() *int {
	x := 9
	return &x
}
