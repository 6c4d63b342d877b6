// Package lockio is the lockio analyzer fixture. sendLocked reproduces the
// PR 3 transport bug shape — a network write performed while the send mutex
// is held, so one wedged peer stalls every contender — and the rest of the
// file walks the blocking-call taxonomy: channel operations, blocking
// selects, WaitGroup waits, sleeps, dials, promoted embedded-mutex locks,
// and read-locked reads, plus the clean shapes (release-then-block,
// select-with-default, goroutine bodies, justified waivers).
package lockio

import (
	"net"
	"sync"
	"time"
)

type conn struct {
	mu sync.Mutex
	c  net.Conn
}

// sendLocked is the PR 3 wedged-peer shape: the deferred unlock holds mu for
// the whole body, so the network write happens under the lock.
func (s *conn) sendLocked(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.c.Write(b) // want "net.Conn.Write while s.mu is held"
	return err
}

func (s *conn) sendUnlocked(b []byte) error {
	s.mu.Lock()
	buf := append([]byte(nil), b...)
	s.mu.Unlock()
	_, err := s.c.Write(buf)
	return err
}

func channelUnderLock(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	ch <- 1 // want "channel send while mu is held"
	<-ch    // want "channel receive while mu is held"
	mu.Unlock()
	ch <- 2
}

func nonBlockingSelect(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	select {
	case ch <- 1:
	default:
	}
	mu.Unlock()
}

func blockingSelect(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	select { // want "select without default while mu is held"
	case v := <-ch:
		_ = v
	}
	mu.Unlock()
}

func waitUnderLock(mu *sync.Mutex, wg *sync.WaitGroup) {
	mu.Lock()
	wg.Wait() // want "sync.WaitGroup.Wait while mu is held"
	mu.Unlock()
}

func sleepUnderLock(mu *sync.Mutex) {
	mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while mu is held"
	mu.Unlock()
}

func dialUnderLock(mu *sync.Mutex) (net.Conn, error) {
	mu.Lock()
	defer mu.Unlock()
	return net.Dial("tcp", "localhost:0") // want "net.Dial while mu is held"
}

func spawnUnderLock(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	go func() {
		ch <- 1 // separate goroutine: does not block the lock holder
	}()
	mu.Unlock()
}

type server struct {
	sync.Mutex
	l net.Listener
}

// acceptEmbedded exercises promoted-method lock tracking (s.Lock resolves to
// the embedded sync.Mutex) and Accept on a net.Listener.
func (s *server) acceptEmbedded() (net.Conn, error) {
	s.Lock()
	defer s.Unlock()
	return s.l.Accept() // want "net.Listener.Accept while s is held"
}

type store struct {
	mu sync.RWMutex
	c  net.Conn
}

func (st *store) readLocked(b []byte) (int, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.c.Read(b) // want "net.Conn.Read while st.mu is held"
}

func waivedHandoff(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	ch <- 1 //lint:lockio fixture: handoff channel buffered to worker count, cannot block
	mu.Unlock()
}

// probe carries the shapes that block through a range, through the
// operands of go and defer statements, and through the defer stack.
type probe struct {
	mu sync.Mutex
	ch chan int
	wg sync.WaitGroup
}

func use(int) {}

func (s *probe) rangeUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range s.ch { // want "range over channel while s.mu is held"
		use(v)
	}
}

// goOperandUnderLock receives in the caller: only use runs on the new
// goroutine.
func (s *probe) goOperandUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go use(<-s.ch) // want "channel receive while s.mu is held"
}

// deferOperandUnderLock receives when the defer statement runs, not at
// return.
func (s *probe) deferOperandUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer use(<-s.ch) // want "channel receive while s.mu is held"
}

// deferredClosureUnderLock: defers run last-in-first-out, so the closure
// runs at return before the deferred unlock, with mu still held.
func (s *probe) deferredClosureUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() {
		s.ch <- 1 // want "channel send while s.mu is held"
	}()
}

// deferredWaitUnderLock parks at return with mu held, after an early return
// that leaves the lock held for the code below it.
func (s *probe) deferredWaitUnderLock(early bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.wg.Wait() // want "sync.WaitGroup.Wait while s.mu is held"
	if early {
		return
	}
	s.ch <- 1 // want "channel send while s.mu is held"
}

// deferredClosureAfterUnlock registers the closure first, so it runs after
// the deferred unlock: clean.
func (s *probe) deferredClosureAfterUnlock() {
	s.mu.Lock()
	defer func() { s.ch <- 1 }()
	defer s.mu.Unlock()
}

// spawnReceiveUnderLock hands the receive to another goroutine: clean.
func (s *probe) spawnReceiveUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() { <-s.ch }()
}
