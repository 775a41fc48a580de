package mpi

import (
	"errors"
	"testing"
	"time"
)

// stubComm is a minimal in-memory Comm for exercising the package helpers
// without a real transport: sends complete immediately into a queue,
// receives pop from it.
type stubComm struct {
	rank, size int
	queue      map[int][][]byte // per tag
	sendErr    error
	recvErr    error
}

type stubRequest = completed

func (c *stubComm) Isend(buf []byte, dst, tag int) Request {
	return c.Post(Op{Dir: DirSend, Buf: buf, Peer: dst, Tag: tag})
}

func (c *stubComm) Irecv(buf []byte, src, tag int) Request {
	return c.Post(Op{Dir: DirRecv, Buf: buf, Peer: src, Tag: tag})
}

func (c *stubComm) Post(op Op) Request {
	if op.Dir == DirSend {
		return c.send(op.Buf, op.Peer, op.Tag)
	}
	return c.recv(op.Buf, op.Peer, op.Tag)
}

func (c *stubComm) Rank() int    { return c.rank }
func (c *stubComm) Size() int    { return c.size }
func (c *stubComm) Now() float64 { return 0 }

func (c *stubComm) send(buf []byte, dst, tag int) Request {
	if err := CheckRank(c, dst); err != nil {
		return stubRequest{err}
	}
	if c.sendErr != nil {
		return stubRequest{c.sendErr}
	}
	if c.queue == nil {
		c.queue = make(map[int][][]byte)
	}
	c.queue[tag] = append(c.queue[tag], append([]byte(nil), buf...))
	return stubRequest{}
}

func (c *stubComm) recv(buf []byte, src, tag int) Request {
	if err := CheckRank(c, src); err != nil {
		return stubRequest{err}
	}
	if c.recvErr != nil {
		return stubRequest{c.recvErr}
	}
	q := c.queue[tag]
	if len(q) == 0 {
		return stubRequest{errors.New("stub: nothing queued")}
	}
	copy(buf, q[0])
	c.queue[tag] = q[1:]
	return stubRequest{}
}

func (c *stubComm) Barrier() error { return nil }

func TestSendRecvHelpers(t *testing.T) {
	c := &stubComm{rank: 0, size: 2}
	if err := Send(c, []byte("hi"), 0, 1); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if err := Recv(c, buf, 0, 1); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hi" {
		t.Errorf("got %q", buf)
	}
}

func TestSendrecvHelper(t *testing.T) {
	c := &stubComm{rank: 0, size: 2}
	// Preload what the receive will consume.
	if err := Send(c, []byte("xy"), 0, 7); err != nil {
		t.Fatal(err)
	}
	in := make([]byte, 2)
	if err := Sendrecv(c, []byte("ab"), 0, 3, in, 0, 7); err != nil {
		t.Fatal(err)
	}
	if string(in) != "xy" {
		t.Errorf("got %q", in)
	}
}

func TestSendrecvPropagatesSendError(t *testing.T) {
	c := &stubComm{rank: 0, size: 2, sendErr: errors.New("boom")}
	if err := Sendrecv(c, nil, 0, 0, nil, 0, 0); err == nil {
		t.Error("want send error")
	}
}

func TestWaitAll(t *testing.T) {
	boom := errors.New("boom")
	reqs := []Request{
		stubRequest{},
		nil, // tolerated
		stubRequest{boom},
		stubRequest{errors.New("later, ignored")},
	}
	if err := WaitAll(reqs); err != boom {
		t.Errorf("WaitAll = %v, want first error %v", err, boom)
	}
	if err := WaitAll(nil); err != nil {
		t.Errorf("WaitAll(nil) = %v", err)
	}
}

func TestCheckRank(t *testing.T) {
	c := &stubComm{rank: 0, size: 4}
	if err := CheckRank(c, 3); err != nil {
		t.Error(err)
	}
	if err := CheckRank(c, 4); err == nil {
		t.Error("want error for rank == size")
	}
	if err := CheckRank(c, -1); err == nil {
		t.Error("want error for negative rank")
	}
}

func TestOpNormalize(t *testing.T) {
	base := make([]byte, 16)
	op, err := Op{Buf: base, Type: Contiguous(10)}.Normalize()
	if err != nil || !op.Type.IsZero() || len(op.Buf) != 10 {
		t.Errorf("contiguous layout: got %d-byte buf, type %+v, err %v", len(op.Buf), op.Type, err)
	}
	op, err = Op{Buf: base, Type: Vector(2, 3, 5)}.Normalize()
	if err != nil || op.Type != Vector(2, 3, 5) || len(op.Buf) != 16 || op.Size() != 6 {
		t.Errorf("strided layout must pass through: %+v, %v", op, err)
	}
	if _, err := (Op{Buf: base, Type: Vector(4, 4, 8)}).Normalize(); err == nil {
		t.Error("want error for a layout past the base slice")
	}
}

func TestWaitAllTimeoutSharesBudget(t *testing.T) {
	block := make(chan error)
	slow := chanReq(block)
	start := time.Now()
	err := WaitAllTimeout([]Request{slow, slow, Completed(nil)}, 20*time.Millisecond)
	if !IsTimeout(err) {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("two blocked requests took %v: the budget must be shared, not per request", el)
	}
}

// chanReq completes when its channel delivers.
type chanReq chan error

func (r chanReq) Await(d time.Duration) (TraceInfo, error) {
	_, err := AwaitDone(r, d)
	return TraceInfo{}, err
}
func (r chanReq) Wait() error { _, err := r.Await(0); return err }
