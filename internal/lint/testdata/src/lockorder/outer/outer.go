// Package outer is the caller half of the lockorder fixture: it acquires its
// own mutex before calling into inner (mu→Mu), while inner's notify path
// acquires them in the opposite order (Mu→mu).
package outer

import (
	"sync"

	"lockorder/inner"
)

// Coord pairs its own mutex with an inner.Store.
type Coord struct {
	mu  sync.Mutex
	aux sync.Mutex
	st  *inner.Store
}

// Notify implements inner.Notifier; it runs with inner's Mu held and takes
// mu, the second half of the cycle.
func (c *Coord) Notify() {
	c.mu.Lock()
	c.mu.Unlock()
}

// Update acquires mu then calls Set, which acquires Mu: the mu→Mu ordering
// edge. The cycle is reported once, at the inner package's reverse edge.
func (c *Coord) Update() {
	c.mu.Lock()
	c.st.Set(1)
	c.mu.Unlock()
}

// Flush blocks transitively while mu is held: WaitAll's summary says
// may-block, even though no blocking syntax is visible here.
func (c *Coord) Flush() {
	c.mu.Lock()
	inner.WaitAll() // want "calling lockorder/inner\\.WaitAll while mu .* is held .* may block"
	c.mu.Unlock()
}

// Drain releases mu before blocking: no finding.
func (c *Coord) Drain() {
	c.mu.Lock()
	c.mu.Unlock()
	inner.WaitAll()
}

// FlushOnExit blocks at return: the deferred WaitAll runs before the
// deferred unlock registered ahead of it, so mu is still held.
func (c *Coord) FlushOnExit() {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer inner.WaitAll() // want "calling lockorder/inner\\.WaitAll while mu .* is held .* may block"
}

// Audit acquires mu at return through the deferred Notify, with aux still
// held: the aux→mu edge, seen only by replaying the defer stack.
func (c *Coord) Audit() {
	c.aux.Lock()
	defer c.aux.Unlock()
	defer c.Notify() // want "lock order cycle: mu .* is acquired while aux .* is held in \\(\\*lockorder/outer\\.Coord\\)\\.Audit"
}

// Tally takes the pair in the opposite order, mu then aux.
func (c *Coord) Tally() {
	c.mu.Lock()
	c.aux.Lock()
	c.aux.Unlock()
	c.mu.Unlock()
}
