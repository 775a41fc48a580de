package shm

import (
	"io"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"time"
)

// Conn adapts a duplex pair of rings to net.Conn, so transports written
// against sockets (the distributed TCP mesh) can run co-located links over
// shared memory without touching the kernel: Read and Write move bytes
// through the rings' stream mode with a spin-then-sleep backoff instead of
// blocking syscalls.
type Conn struct {
	rx, tx        *Ring
	local, remote Addr
	closed        atomic.Bool
	// active counts in-flight Reads and Writes; Close waits for it to
	// drain before releasing the segment, so a concurrent poller never
	// touches unmapped memory.
	active        atomic.Int64
	readDeadline  atomic.Int64 // unix nanos; 0 = none
	writeDeadline atomic.Int64
	// cleanup, when non-nil, releases the underlying segment (munmap,
	// unlink) on Close.
	cleanup func() error
}

// Addr is the shm endpoint address.
type Addr string

// Network names the shm pseudo-network.
func (Addr) Network() string { return "shm" }

func (a Addr) String() string { return string(a) }

// NewConn builds a Conn reading from rx and writing to tx.
func NewConn(rx, tx *Ring, local, remote string) *Conn {
	return &Conn{rx: rx, tx: tx, local: Addr(local), remote: Addr(remote)}
}

// backoff is the polling strategy for an empty/full ring: stay hot through
// the scheduler first (another goroutine on this box is about to make
// progress), then back off to short sleeps so a stalled peer does not burn
// a core.
type backoff struct {
	spins int
}

const (
	backoffSpins    = 64
	backoffMinSleep = time.Microsecond
	backoffMaxSleep = 100 * time.Microsecond
)

func (b *backoff) pause() {
	b.spins++
	if b.spins <= backoffSpins {
		runtime.Gosched()
		return
	}
	d := backoffMinSleep << uint(min(b.spins-backoffSpins, 16))
	if d > backoffMaxSleep {
		d = backoffMaxSleep
	}
	time.Sleep(d)
}

// deadlineExpired reports whether the stored deadline has passed.
func deadlineExpired(dl *atomic.Int64) bool {
	v := dl.Load()
	return v != 0 && time.Now().UnixNano() >= v
}

// enter registers an in-flight operation; false once the conn is locally
// closed (the segment may be unmapped at any point after that).
func (c *Conn) enter() bool {
	c.active.Add(1)
	if c.closed.Load() {
		c.active.Add(-1)
		return false
	}
	return true
}

func (c *Conn) exit() { c.active.Add(-1) }

// Read pops available bytes, blocking (polling) until at least one byte,
// EOF (peer closed and ring drained, or local close) or the read deadline.
func (c *Conn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if !c.enter() {
		return 0, io.EOF
	}
	defer c.exit()
	var bo backoff
	for {
		// Drain before honoring the peer's close: bytes written before it
		// closed must still be readable, matching TCP half-close reads.
		if n := c.rx.TryRead(p); n > 0 {
			return n, nil
		}
		if c.closed.Load() || c.rx.Closed() {
			// The peer may have written its last bytes and closed between
			// the drain above and this check: its close is ordered after
			// those writes, so one more drain sees them all.
			if n := c.rx.TryRead(p); n > 0 {
				return n, nil
			}
			return 0, io.EOF
		}
		if deadlineExpired(&c.readDeadline) {
			return 0, os.ErrDeadlineExceeded
		}
		bo.pause()
	}
}

// Write pushes all of p, blocking (polling) while the ring is full.
func (c *Conn) Write(p []byte) (int, error) {
	if !c.enter() {
		return 0, io.ErrClosedPipe
	}
	defer c.exit()
	written := 0
	var bo backoff
	for written < len(p) {
		if c.closed.Load() || c.tx.Closed() {
			return written, io.ErrClosedPipe
		}
		if deadlineExpired(&c.writeDeadline) {
			return written, os.ErrDeadlineExceeded
		}
		if n := c.tx.TryWrite(p[written:]); n > 0 {
			written += n
			bo.spins = 0
			continue
		}
		bo.pause()
	}
	return written, nil
}

// Close marks both rings closed (waking the peer's polling loops), waits
// for in-flight Reads and Writes to drain — they observe the close within
// one backoff step — and releases the underlying segment. Idempotent.
func (c *Conn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.rx.Close()
	c.tx.Close()
	for c.active.Load() != 0 {
		runtime.Gosched()
	}
	if c.cleanup != nil {
		return c.cleanup()
	}
	return nil
}

// LocalAddr returns this side's shm address.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr returns the peer's shm address.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline sets both read and write deadlines.
func (c *Conn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	return c.SetWriteDeadline(t)
}

// SetReadDeadline bounds future Reads; the zero time clears it.
func (c *Conn) SetReadDeadline(t time.Time) error {
	if t.IsZero() {
		c.readDeadline.Store(0)
	} else {
		c.readDeadline.Store(t.UnixNano())
	}
	return nil
}

// SetWriteDeadline bounds future Writes; the zero time clears it.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	if t.IsZero() {
		c.writeDeadline.Store(0)
	} else {
		c.writeDeadline.Store(t.UnixNano())
	}
	return nil
}

// Pipe returns an in-process connected pair, the shm analogue of net.Pipe
// with real buffering: bytes written to one side are readable on the other
// through heap-backed rings. Used by tests and by co-located ranks inside
// one process.
func Pipe(ringBytes int) (*Conn, *Conn) {
	if ringBytes < MinSegment {
		ringBytes = MinSegment
	}
	a := NewRing(ringBytes)
	b := NewRing(ringBytes)
	return NewConn(a, b, "pipe:0", "pipe:1"), NewConn(b, a, "pipe:1", "pipe:0")
}
