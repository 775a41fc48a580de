// Corpus for the waitcheck analyzer: the request lifecycle, recognized by
// the request contract (Wait plus the bounded Await) of the result type.
package waitcheck

import (
	"errors"
	"time"
)

type TraceInfo struct{ Ctx uint64 }

type Request struct{ done bool }

func (r *Request) Await(d time.Duration) (TraceInfo, error) { return TraceInfo{}, nil }
func (r *Request) Wait() error                              { return nil }

// Waiter has a Wait method but no bounded completion: not a request.
type Waiter struct{}

func (Waiter) Wait() error { return nil }

type Op struct {
	Buf  []byte
	Peer int
}

type Comm struct{}

func (c *Comm) Post(op Op) *Request                { return &Request{} }
func (c *Comm) Isend(buf []byte, dst int) *Request { return &Request{} }
func (c *Comm) Irecv(buf []byte, src int) *Request { return &Request{} }

// IsendStrided is a package-level helper returning a request, the shape of
// a typed-send wrapper.
func IsendStrided(c *Comm, base []byte, dst int) *Request {
	return c.Post(Op{Buf: base, Peer: dst}) // ok: caller takes responsibility
}

func startWaiter() Waiter { return Waiter{} }

func waitAll(reqs []*Request) error {
	for _, r := range reqs {
		if err := r.Wait(); err != nil {
			return err
		}
	}
	return nil
}

func prepare(i int) error { return nil }

func timedOut(buf []byte) bool { return len(buf) == 0 }

func chainedWait(c *Comm, buf []byte) error {
	return c.Isend(buf, 1).Wait() // ok: waited immediately
}

func discarded(c *Comm, buf []byte) {
	_ = c.Isend(buf, 1) // want `result of Isend is discarded; the request is never waited`
}

func dropped(c *Comm, buf []byte) {
	c.Irecv(buf, 0) // want `result of Irecv is discarded; the request is never waited`
}

func neverWaited(c *Comm, buf []byte) {
	var reqs []*Request
	reqs = append(reqs, c.Isend(buf, 1)) // want `request stored in "reqs" is never waited`
	reqs = reqs[:0]
}

func earlyReturnLeak(c *Comm, buf []byte, n int) error {
	var reqs []*Request
	for i := 0; i < n; i++ {
		reqs = append(reqs, c.Irecv(buf, i))
		if err := prepare(i); err != nil {
			return err // want `return leaks request\(s\) in "reqs" acquired at line \d+ without a Wait on this path`
		}
	}
	return waitAll(reqs)
}

func guardedReturn(c *Comm, buf []byte, n int) error {
	var reqs []*Request
	for i := 0; i < n; i++ {
		reqs = append(reqs, c.Irecv(buf, i))
	}
	if err := waitAll(reqs); err != nil {
		return err // ok: the wait happened in this statement's init
	}
	return nil
}

func singleTracked(c *Comm, buf []byte) error {
	r := c.Isend(buf, 1)
	return r.Wait() // ok: waited on the only path
}

func escapesToCaller(c *Comm, buf []byte) *Request {
	return c.Isend(buf, 1) // ok: caller takes responsibility
}

func escapesViaSlice(c *Comm, buf []byte) []*Request {
	var reqs []*Request
	reqs = append(reqs, c.Isend(buf, 1), c.Irecv(buf, 1))
	return reqs // ok: slice escapes to the caller
}

func escapesViaHelper(c *Comm, buf []byte) error {
	return waitAll([]*Request{c.Isend(buf, 1)}) // ok: composite literal handed to the waiter
}

func deliberateAbandon(c *Comm, buf []byte) error {
	r := c.Isend(buf, 1)
	if timedOut(buf) {
		//aapc:allow waitcheck scratch comm is abandoned to the GC on timeout
		return errors.New("timeout")
	}
	return r.Wait()
}

// ---- interprocedural cases: callee facts decide who holds the request ----

// dropOnFloor ignores its request entirely; its fact proves it.
func dropOnFloor(r *Request) {}

// handOff genuinely consumes: the request reaches a Wait one frame down.
func handOff(r *Request) error { return r.Wait() }

func passedToSink(c *Comm, buf []byte) {
	dropOnFloor(c.Isend(buf, 1)) // want `result of Isend is passed to dropOnFloor, which neither waits nor retains it`
}

func passedToWaiter(c *Comm, buf []byte) error {
	return handOff(c.Isend(buf, 1)) // ok: handOff waits
}

func storedThenDropped(c *Comm, buf []byte) {
	r := c.Isend(buf, 1) // want `request stored in "r" is never waited`
	dropOnFloor(r)
}

func storedThenHandedOff(c *Comm, buf []byte) error {
	r := c.Isend(buf, 1)
	return handOff(r) // ok: the callee's fact marks the parameter consumed
}

// ---- type-based recognition: Post and helpers, not just Isend/Irecv ----

func postLeakOnError(c *Comm, buf []byte) error {
	r := c.Post(Op{Buf: buf, Peer: 1})
	if err := prepare(0); err != nil {
		return err // want `return leaks request\(s\) in "r" acquired at line \d+ without a Wait on this path`
	}
	return r.Wait()
}

func stridedLeakOnError(c *Comm, base []byte, n int) error {
	var reqs []*Request
	for i := 0; i < n; i++ {
		reqs = append(reqs, IsendStrided(c, base, i))
		if err := prepare(i); err != nil {
			return err // want `return leaks request\(s\) in "reqs" acquired at line \d+ without a Wait on this path`
		}
	}
	return waitAll(reqs)
}

func postDiscarded(c *Comm, buf []byte) {
	c.Post(Op{Buf: buf}) // want `result of Post is discarded; the request is never waited`
}

func boundedWait(c *Comm, buf []byte) error {
	_, err := c.Post(Op{Buf: buf}).Await(time.Second) // ok: completed immediately
	return err
}

func notARequest() {
	startWaiter() // ok: a Wait method alone is not the request contract
}
