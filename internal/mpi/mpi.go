// Package mpi defines the message-passing substrate the AAPC algorithms are
// written against: a deliberately small subset of MPI point-to-point
// semantics (nonblocking send/receive with tag matching, waiting, and a
// barrier).
//
// The paper's automatically generated MPI_Alltoall routines are built on
// three MPI primitives — MPI_Isend, MPI_Irecv and MPI_Waitall — and this
// package plays the role of that layer with one contract: Comm.Post starts
// any send or receive (contiguous or strided, traced or not) and
// Request.Await completes it (bounded or not, reporting the sender's trace
// context). Isend, Irecv and Wait are the one-line everyday forms. Four
// implementations exist:
//
//   - mpi/mem: the in-process transport; all ranks share one address space
//     and a per-pair matching engine moves real bytes with a single copy.
//     Used for functional correctness tests and the examples.
//   - mpi/tcp: loopback TCP sockets (one connection per rank pair); the
//     closest runnable analogue of the paper's LAM/MPI-over-Ethernet stack.
//   - mpi/tcp distributed mode (tcp.Join): one rank per process, linked
//     through a rendezvous coordinator; co-located ranks exchange frames
//     over mpi/shm pair segments instead of sockets.
//   - simnet: a discrete-event fluid network simulator with virtual time,
//     used to reproduce the paper's performance evaluation.
//
// Algorithms written once against Comm run on all of them.
package mpi

import (
	"fmt"
	"time"
)

// AnyTag is not supported: all receives match an explicit (source, tag)
// pair. The constant exists to document that choice.
const AnyTag = -1

// Request is an in-flight nonblocking operation.
type Request interface {
	// Await blocks until the operation completes and returns the trace
	// information delivered with it (see TraceInfo) and its error. d > 0
	// bounds the wait: on expiry Await returns zero info and a
	// *TimeoutError, and the operation is abandoned, not cancelled — its
	// buffer must not be reused, a late match may still consume it, and the
	// transport never recycles it. d <= 0 waits without bound (transports
	// in virtual time, like the simulator, always do: their deadlock
	// detection is the backstop).
	//
	// Await or Wait may be called at most once per request: transports
	// recycle a completed operation in the same step that consumes its
	// completion.
	Await(d time.Duration) (TraceInfo, error)
	// Wait is the unbounded Await without the trace information.
	Wait() error
}

// Dir is the direction of a point-to-point operation.
type Dir uint8

const (
	// DirSend sends the described bytes to Peer.
	DirSend Dir = iota
	// DirRecv receives from Peer into the described bytes; completion
	// places min(capacity, sent) bytes.
	DirRecv
)

// Op describes one point-to-point operation for Comm.Post.
type Op struct {
	Dir Dir
	// Buf holds the payload. With a non-zero Type it is the base storage
	// the layout addresses; otherwise it is the contiguous payload itself.
	// A send's bytes must not be modified until the request completes.
	Buf []byte
	// Type describes a strided layout over Buf (MPI user datatypes); the
	// zero Datatype means Buf is contiguous.
	Type Datatype
	// Peer is the destination of a send, the source of a receive.
	Peer int
	Tag  int
	// Ctx is the causal trace context a send attaches (MakeTraceCtx); the
	// matching receive's Await reports it. 0 sends untraced. Receives
	// ignore it.
	Ctx uint64
}

// Size returns the number of payload bytes the operation describes.
func (o Op) Size() int {
	if o.Type.IsZero() {
		return len(o.Buf)
	}
	return o.Type.Size()
}

// Normalize validates the op's datatype against Buf and reduces a
// contiguous layout to the plain form (Buf trimmed to the payload, zero
// Type), so transports special-case only genuinely strided operations.
func (o Op) Normalize() (Op, error) {
	if o.Type.IsZero() {
		return o, nil
	}
	if err := o.Type.Validate(len(o.Buf)); err != nil {
		return o, err
	}
	if o.Type.Contig() {
		o.Buf = o.Buf[:o.Type.Size()]
		o.Type = Datatype{}
	}
	return o, nil
}

// Comm is a communicator: the endpoint of one rank within a world of Size
// ranks. Implementations must be safe for use by the owning rank's
// goroutine; a Comm must not be shared between goroutines.
type Comm interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the world.
	Size() int
	// Post starts the described nonblocking send or receive. Matching is
	// FIFO per (source, destination, tag); either side's layout may be
	// strided, and the bytes move between the two layouts with no pack
	// staging on the transports that carry them natively.
	Post(op Op) Request
	// Isend is Post of an untraced contiguous send of buf to dst.
	Isend(buf []byte, dst, tag int) Request
	// Irecv is Post of a contiguous receive into buf from src.
	Irecv(buf []byte, src, tag int) Request
	// Barrier blocks until every rank of the world has entered it.
	Barrier() error
	// Now returns the communicator's notion of elapsed time in seconds:
	// wall-clock time for real transports, virtual time for the simulator.
	Now() float64
}

// Completed returns an already-completed request whose wait reports err:
// the form every transport and wrapper uses for an operation that fails
// before reaching the wire (bad rank, dead peer) or needs no wire at all.
func Completed(err error) Request {
	if err == nil {
		return succeeded
	}
	return completed{err}
}

// succeeded is the shared successful completion (no allocation per use).
var succeeded Request = completed{}

type completed struct{ err error }

func (r completed) Await(time.Duration) (TraceInfo, error) { return TraceInfo{}, r.err }
func (r completed) Wait() error                            { return r.err }

// AwaitDone receives an operation's completion from done, bounded by d
// (d <= 0: no bound). ok is false when d expired first; err is then a
// *TimeoutError and the caller must abandon the operation.
func AwaitDone(done <-chan error, d time.Duration) (ok bool, err error) {
	if d <= 0 {
		return true, <-done
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case err := <-done:
		return true, err
	case <-t.C:
		return false, &TimeoutError{Op: "wait", After: d}
	}
}

// Flusher is the optional Comm extension for transports with an
// asynchronous writer stage between Post and the wire. Flush(dst) returns
// once every send this rank has issued toward dst before the call has been
// handed to the kernel — a wire-entry ordering point — without waiting for
// delivery acknowledgement. d > 0 bounds the wait (typed *TimeoutError on
// expiry); d <= 0 waits until the watermark is reached or the transport
// reports failure.
//
// Schedulers use it to order "my previous message entered the link before
// this synchronization" at the cost of a local writer handoff instead of a
// delivery round trip. Transports whose sends hand bytes over
// synchronously (mem, simulators) simply don't implement it; callers fall
// back to waiting the request.
type Flusher interface {
	Flush(dst int, d time.Duration) error
}

// Send is a blocking send: Isend immediately waited.
func Send(c Comm, buf []byte, dst, tag int) error {
	return c.Isend(buf, dst, tag).Wait()
}

// Recv is a blocking receive: Irecv immediately waited.
func Recv(c Comm, buf []byte, src, tag int) error {
	return c.Irecv(buf, src, tag).Wait()
}

// Sendrecv performs a blocking simultaneous send and receive, the workhorse
// of pairwise-exchange algorithms.
func Sendrecv(c Comm, sendBuf []byte, dst, sendTag int, recvBuf []byte, src, recvTag int) error {
	rr := c.Irecv(recvBuf, src, recvTag)
	sr := c.Isend(sendBuf, dst, sendTag)
	if err := sr.Wait(); err != nil {
		// Drain the receive to keep the transport consistent before
		// reporting the send failure.
		_ = rr.Wait()
		return err
	}
	return rr.Wait()
}

// WaitAll waits for every request and returns the first error encountered,
// after waiting for all of them.
func WaitAll(reqs []Request) error {
	return WaitAllTimeout(reqs, 0)
}

// WaitAllTimeout waits for every request under one shared deadline: the
// budget d covers the whole batch, not each request. It returns the first
// error encountered after attempting to wait for all of them. d <= 0 waits
// without bound. Nil entries are skipped.
func WaitAllTimeout(reqs []Request, d time.Duration) error {
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	var first error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		var rem time.Duration
		if d > 0 {
			// Budget exhausted: give each remaining request a chance to
			// complete immediately, but do not block.
			rem = max(time.Until(deadline), time.Nanosecond)
		}
		if _, err := r.Await(rem); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SendTimeout is a blocking send bounded by d.
func SendTimeout(c Comm, buf []byte, dst, tag int, d time.Duration) error {
	_, err := c.Isend(buf, dst, tag).Await(d)
	return err
}

// RecvTimeout is a blocking receive bounded by d.
func RecvTimeout(c Comm, buf []byte, src, tag int, d time.Duration) error {
	_, err := c.Irecv(buf, src, tag).Await(d)
	return err
}

// CheckRank validates a peer rank against the world size.
func CheckRank(c Comm, peer int) error {
	if peer < 0 || peer >= c.Size() {
		return fmt.Errorf("mpi: rank %d out of range [0, %d)", peer, c.Size())
	}
	return nil
}
