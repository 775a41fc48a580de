// Package mem is the repository's in-process mpi transport: all ranks live
// in one address space and exchange real bytes through a matching engine.
// It is the reference transport for functional correctness — if an
// all-to-all algorithm produces the right permutation here, the algorithm
// logic is right; performance behaviour is the simulator's job — and the
// one in-process matching core every other in-process use builds on.
//
// Matching state is kept per directed (source, destination) pair, each pair
// under its own lock, so ranks exchanging with different peers never
// contend. A match moves the payload once, straight between the two user
// layouts (either side may be strided): a receive posted before its send —
// the scheduled all-to-all's steady state — is filled by the sender with a
// single copy, and a send posted first waits, unstaged, for its receive.
//
// For fault testing, a rank can be killed (KillRank or the mpi.Killer
// interface on its comm): every pending and future operation involving the
// dead rank — on any rank — fails with a typed *mpi.RankError, and barriers
// abort instead of waiting for an arrival that will never come.
package mem

import (
	"fmt"
	"sync"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// World is a set of in-process communicator endpoints.
type World struct {
	n     int
	start time.Time

	// pairs holds the matching state of every directed pair, indexed
	// src*n+dst.
	pairs []pair

	// deadMu guards dead, the failure cause per rank (nil while alive).
	deadMu sync.Mutex
	dead   []error

	barMu   sync.Mutex
	barrier *barrierGen

	// opsMu guards opFree, the freelist of completed operations. An op (and
	// its one-slot channel) is recycled when its wait consumes the
	// completion — the only point where provably neither side references
	// it anymore. Ops abandoned by a bounded Await are never recycled: a
	// late match may still write their buffer and channel.
	opsMu  sync.Mutex
	opFree []*op
}

// pair is the matching state of one directed (src, dst) link: unmatched
// sends and posted receives, FIFO per tag. MPI ordering applies per
// (src, dst, tag), so a pair's queues are the whole of it.
type pair struct {
	mu    sync.Mutex
	sends map[int][]*op
	recvs map[int][]*op
}

// opFreeCap bounds the freelist; beyond it completed ops fall to the GC.
const opFreeCap = 1024

// getOp returns a recycled op or makes a fresh one.
func (w *World) getOp(buf []byte, dt mpi.Datatype) *op {
	w.opsMu.Lock()
	if k := len(w.opFree); k > 0 {
		o := w.opFree[k-1]
		w.opFree[k-1] = nil
		w.opFree = w.opFree[:k-1]
		w.opsMu.Unlock()
		o.buf, o.dt = buf, dt
		return o
	}
	w.opsMu.Unlock()
	return &op{w: w, buf: buf, dt: dt, done: make(chan error, 1)}
}

// putOp returns a consumed op to the freelist. Its channel is empty again
// (the single completion was just received), so it is ready for reuse.
func (w *World) putOp(o *op) {
	o.buf = nil
	o.ctx = 0
	o.deliveredAt = 0
	o.dt = mpi.Datatype{}
	w.opsMu.Lock()
	if len(w.opFree) < opFreeCap {
		w.opFree = append(w.opFree, o)
	}
	w.opsMu.Unlock()
}

// barrierGen is one generation of the barrier: everyone blocked on it is
// released together, either cleanly or with an abort error.
type barrierGen struct {
	waiting int
	release chan struct{}
	err     error
}

// op is one pending operation awaiting its match. It doubles as the request
// handed back to the caller: Await consumes the completion and recycles the
// op through the world's freelist, so a steady stream of operations reuses a
// small set of op/channel pairs instead of allocating per message.
type op struct {
	w    *World
	buf  []byte
	done chan error
	// ctx is the trace context: on a send op, the context the sender
	// attached; on a recv op, the matching sender's context, copied at match
	// time before the completion is signalled. 0 = untraced.
	ctx uint64
	// deliveredAt is the delivery timestamp (Comm.Now seconds), stamped on
	// BOTH ops at match time for traced messages only: the recv side reads
	// it as the payload's arrival, the send side as the moment its message
	// left (which a late-drained wait would otherwise misreport).
	deliveredAt float64
	// dt, when non-zero, describes buf's strided layout. The match moves
	// bytes straight between the two layouts — the transport's single copy,
	// with no pack staging in between.
	dt mpi.Datatype
}

// size returns the operation's payload capacity in bytes.
func (o *op) size() int {
	if o.dt.IsZero() {
		return len(o.buf)
	}
	return o.dt.Size()
}

// Await implements mpi.Request. The trace info is read before the op is
// recycled — reading it afterwards would race the freelist.
func (o *op) Await(d time.Duration) (mpi.TraceInfo, error) {
	ok, err := mpi.AwaitDone(o.done, d)
	if !ok {
		return mpi.TraceInfo{}, err
	}
	info := mpi.TraceInfo{Ctx: o.ctx, DeliveredAt: o.deliveredAt}
	o.w.putOp(o)
	return info, err
}

func (o *op) Wait() error { _, err := o.Await(0); return err }

// NewWorld creates a world of n in-process ranks and returns one
// communicator per rank.
func NewWorld(n int) []mpi.Comm {
	if n < 1 {
		panic(fmt.Sprintf("mem: world size %d", n))
	}
	w := &World{
		n:       n,
		start:   time.Now(),
		pairs:   make([]pair, n*n),
		dead:    make([]error, n),
		barrier: &barrierGen{release: make(chan struct{})},
	}
	comms := make([]mpi.Comm, n)
	for i := range comms {
		comms[i] = &comm{w: w, rank: i}
	}
	return comms
}

// NewWorldComms returns the comms and the world itself, for callers that
// need fault control (KillRank).
func NewWorldComms(n int) ([]mpi.Comm, *World) {
	comms := NewWorld(n)
	return comms, comms[0].(*comm).w
}

// Run starts fn once per rank on its own goroutine and waits for all of
// them, returning the first non-nil error.
func Run(n int, fn func(c mpi.Comm) error) error {
	comms := NewWorld(n)
	errs := make(chan error, n)
	for _, c := range comms {
		go func(c mpi.Comm) { errs <- fn(c) }(c)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// KillRank simulates the death of rank r: pending sends and receives
// involving r fail with a *mpi.RankError on every rank, as do future ones,
// and any barrier in progress aborts. Killing a dead rank is a no-op.
func (w *World) KillRank(r int) error {
	if r < 0 || r >= w.n {
		return fmt.Errorf("mem: kill of rank %d out of range [0, %d)", r, w.n)
	}
	w.deadMu.Lock()
	if w.dead[r] != nil {
		w.deadMu.Unlock()
		return nil
	}
	cause := fmt.Errorf("mem: rank %d killed", r)
	w.dead[r] = cause
	w.deadMu.Unlock()
	// Posts check liveness under their pair's lock, after the mark above
	// became visible or before this sweep takes that lock: either way no
	// operation involving r is left pending.
	rankErr := &mpi.RankError{Rank: r, Err: cause}
	for q := 0; q < w.n; q++ {
		w.pairs[r*w.n+q].fail(rankErr)
		w.pairs[q*w.n+r].fail(rankErr)
	}
	// Abort the in-flight barrier generation: the dead rank will never
	// arrive, so everyone blocked would wait forever.
	w.barMu.Lock()
	if w.barrier.waiting > 0 {
		w.barrier.err = rankErr
		close(w.barrier.release)
		w.barrier = &barrierGen{release: make(chan struct{})}
	}
	w.barMu.Unlock()
	return nil
}

// fail completes every pending operation of the pair with err.
func (p *pair) fail(err error) {
	p.mu.Lock()
	for tag, q := range p.sends {
		for _, o := range q {
			o.done <- err
		}
		delete(p.sends, tag)
	}
	for tag, q := range p.recvs {
		for _, o := range q {
			o.done <- err
		}
		delete(p.recvs, tag)
	}
	p.mu.Unlock()
}

// deadErr returns the typed error for an operation involving a dead
// endpoint, or nil.
func (w *World) deadErr(a, b int) error {
	w.deadMu.Lock()
	defer w.deadMu.Unlock()
	for _, r := range [2]int{a, b} {
		if cause := w.dead[r]; cause != nil {
			return &mpi.RankError{Rank: r, Err: cause}
		}
	}
	return nil
}

// lowestDeadErr returns the typed error naming the lowest dead rank, or nil
// when every rank is alive: a deterministic choice, so every surviving rank
// reports the same failure.
func (w *World) lowestDeadErr() error {
	w.deadMu.Lock()
	defer w.deadMu.Unlock()
	for r, cause := range w.dead {
		if cause != nil {
			return &mpi.RankError{Rank: r, Err: cause}
		}
	}
	return nil
}

type comm struct {
	w    *World
	rank int
}

func (c *comm) Rank() int { return c.rank }
func (c *comm) Size() int { return c.w.n }

func (c *comm) Now() float64 { return time.Since(c.w.start).Seconds() }

// Kill simulates the death of this rank (mpi.Killer).
func (c *comm) Kill() error { return c.w.KillRank(c.rank) }

func (c *comm) Isend(buf []byte, dst, tag int) mpi.Request {
	return c.Post(mpi.Op{Dir: mpi.DirSend, Buf: buf, Peer: dst, Tag: tag})
}

func (c *comm) Irecv(buf []byte, src, tag int) mpi.Request {
	return c.Post(mpi.Op{Dir: mpi.DirRecv, Buf: buf, Peer: src, Tag: tag})
}

// Post implements mpi.Comm: the operation matches the oldest opposite
// operation queued on its pair and tag, or queues itself.
func (c *comm) Post(o mpi.Op) mpi.Request {
	o, err := o.Normalize()
	if err != nil {
		return mpi.Completed(err)
	}
	if err := mpi.CheckRank(c, o.Peer); err != nil {
		return mpi.Completed(err)
	}
	w := c.w
	me := w.getOp(o.Buf, o.Type)
	sending := o.Dir == mpi.DirSend
	src, dst := o.Peer, c.rank
	if sending {
		src, dst = c.rank, o.Peer
		me.ctx = o.Ctx
	}
	p := &w.pairs[src*w.n+dst]
	p.mu.Lock()
	if sending {
		if err := w.deadErr(src, dst); err != nil {
			p.mu.Unlock()
			w.putOp(me)
			return mpi.Completed(err)
		}
		if peer := pop(p.recvs, o.Tag); peer != nil {
			p.mu.Unlock()
			c.match(peer, me, src, dst, o.Tag)
			return me
		}
		p.sends = push(p.sends, o.Tag, me)
		p.mu.Unlock()
		return me
	}
	// A message sent before the source died still matches.
	if peer := pop(p.sends, o.Tag); peer != nil {
		p.mu.Unlock()
		c.match(me, peer, src, dst, o.Tag)
		return me
	}
	if err := w.deadErr(dst, src); err != nil {
		p.mu.Unlock()
		w.putOp(me)
		return mpi.Completed(err)
	}
	p.recvs = push(p.recvs, o.Tag, me)
	p.mu.Unlock()
	return me
}

// pop removes and returns the oldest op queued under tag, or nil.
func pop(q map[int][]*op, tag int) *op {
	ops := q[tag]
	if len(ops) == 0 {
		return nil
	}
	o := ops[0]
	ops[0] = nil
	q[tag] = ops[1:]
	return o
}

// push appends o to the tag's queue, allocating the map on first use.
func push(q map[int][]*op, tag int, o *op) map[int][]*op {
	if q == nil {
		q = make(map[int][]*op)
	}
	q[tag] = append(q[tag], o)
	return q
}

// match completes a matched pair of operations. Both ops have left their
// queues, so no lock is needed: the copy runs outside the pair's critical
// section and the channel sends order every write before the waits' reads.
func (c *comm) match(recv, send *op, src, dst, tag int) {
	n := mpi.CopyTyped(recv.buf, recv.dt, send.buf, send.dt)
	if send.ctx != 0 {
		// A send's effect happened at the match, not at whatever later
		// point its wait was drained, so both sides get the same stamp.
		recv.ctx = send.ctx
		recv.deliveredAt = c.Now()
		send.deliveredAt = recv.deliveredAt
	}
	var err error
	if n < send.size() {
		err = fmt.Errorf("mem: send %d->%d tag %d truncated: receiver buffer %d < %d",
			src, dst, tag, recv.size(), send.size())
	}
	recv.done <- err
	send.done <- err
}

func (c *comm) Barrier() error {
	w := c.w
	w.barMu.Lock()
	// A barrier can never complete while any rank is dead; fail fast with
	// the same typed error every surviving rank sees.
	if err := w.deadErr(c.rank, c.rank); err != nil {
		w.barMu.Unlock()
		return err
	}
	if err := w.lowestDeadErr(); err != nil {
		w.barMu.Unlock()
		return err
	}
	gen := w.barrier
	gen.waiting++
	if gen.waiting == w.n {
		// Last arrival releases everyone and resets for the next round.
		close(gen.release)
		w.barrier = &barrierGen{release: make(chan struct{})}
		w.barMu.Unlock()
		return nil
	}
	w.barMu.Unlock()
	<-gen.release
	return gen.err
}
