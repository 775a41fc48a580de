package mem

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			return mpi.Send(c, []byte("hello"), 1, 7)
		}
		buf := make([]byte, 5)
		if err := mpi.Recv(c, buf, 0, 7); err != nil {
			return err
		}
		if string(buf) != "hello" {
			return fmt.Errorf("got %q", buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvBeforeSend(t *testing.T) {
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 1 {
			buf := make([]byte, 3)
			r := c.Irecv(buf, 0, 0)
			if err := r.Wait(); err != nil {
				return err
			}
			if string(buf) != "abc" {
				return fmt.Errorf("got %q", buf)
			}
			return nil
		}
		time.Sleep(10 * time.Millisecond) // let the receive post first
		return mpi.Send(c, []byte("abc"), 1, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	// Two messages with different tags sent in one order, received in the
	// other: tags must route them correctly.
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			if err := mpi.Send(c, []byte("first"), 1, 1); err != nil {
				return err
			}
			return mpi.Send(c, []byte("secnd"), 1, 2)
		}
		b2 := make([]byte, 5)
		b1 := make([]byte, 5)
		r2 := c.Irecv(b2, 0, 2)
		r1 := c.Irecv(b1, 0, 1)
		if err := mpi.WaitAll([]mpi.Request{r1, r2}); err != nil {
			return err
		}
		if string(b1) != "first" || string(b2) != "secnd" {
			return fmt.Errorf("tag mismatch: %q %q", b1, b2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOOrderingSameKey(t *testing.T) {
	// Messages with identical (src, dst, tag) must not overtake each other.
	const k = 50
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				if err := mpi.Send(c, []byte{byte(i)}, 1, 9); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < k; i++ {
			b := make([]byte, 1)
			if err := mpi.Recv(c, b, 0, 9); err != nil {
				return err
			}
			if b[0] != byte(i) {
				return fmt.Errorf("message %d overtaken by %d", i, b[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecv(t *testing.T) {
	err := Run(2, func(c mpi.Comm) error {
		peer := 1 - c.Rank()
		out := []byte{byte(c.Rank())}
		in := make([]byte, 1)
		if err := mpi.Sendrecv(c, out, peer, 0, in, peer, 0); err != nil {
			return err
		}
		if in[0] != byte(peer) {
			return fmt.Errorf("rank %d got %d", c.Rank(), in[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTruncationError checks that an oversized send fails both of the
// matched requests, whether the receive was queued before its send (the
// sender fills it directly) or the send was queued first (the receive
// drains it).
func TestTruncationError(t *testing.T) {
	for _, tc := range []struct {
		name      string
		recvFirst bool
	}{{"recv-first", true}, {"send-first", false}} {
		t.Run(tc.name, func(t *testing.T) {
			comms := NewWorld(2)
			var rr, sr mpi.Request
			if tc.recvFirst {
				rr = comms[1].Irecv(make([]byte, 2), 0, 1)
				sr = comms[0].Isend([]byte("too long"), 1, 1)
			} else {
				sr = comms[0].Isend([]byte("too long"), 1, 1)
				rr = comms[1].Irecv(make([]byte, 2), 0, 1)
			}
			serr, rerr := sr.Wait(), rr.Wait()
			for _, err := range []error{serr, rerr} {
				if err == nil || !strings.Contains(err.Error(), "truncated") {
					t.Fatalf("send error %v, recv error %v: want truncation on both", serr, rerr)
				}
			}
		})
	}
}

func TestBadRank(t *testing.T) {
	comms := NewWorld(2)
	if err := comms[0].Isend(nil, 5, 0).Wait(); err == nil {
		t.Error("want error for out-of-range destination")
	}
	if err := comms[0].Irecv(nil, -1, 0).Wait(); err == nil {
		t.Error("want error for out-of-range source")
	}
}

func TestBarrier(t *testing.T) {
	const n = 8
	var mu sync.Mutex
	phase := make([]int, n)
	err := Run(n, func(c mpi.Comm) error {
		for round := 0; round < 5; round++ {
			mu.Lock()
			phase[c.Rank()] = round
			mu.Unlock()
			if err := c.Barrier(); err != nil {
				return err
			}
			// After the barrier, nobody can still be in an older round.
			mu.Lock()
			for r, p := range phase {
				if p < round {
					mu.Unlock()
					return fmt.Errorf("rank %d saw rank %d still at round %d during round %d",
						c.Rank(), r, p, round)
				}
			}
			mu.Unlock()
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBarrierReportsSameDeadRank kills two of four ranks and checks that
// every survivor's barrier names the same dead rank — the lowest — rather
// than whichever one a map iteration happened to visit first.
func TestBarrierReportsSameDeadRank(t *testing.T) {
	for rep := 0; rep < 50; rep++ {
		comms, w := NewWorldComms(4)
		for _, r := range []int{3, 1} {
			if err := w.KillRank(r); err != nil {
				t.Fatal(err)
			}
		}
		survivors := []int{0, 2}
		named := make([]int, len(survivors))
		var wg sync.WaitGroup
		for i, r := range survivors {
			wg.Add(1)
			go func(i int, c mpi.Comm) {
				defer wg.Done()
				named[i] = -1
				if re, ok := mpi.AsRankError(c.Barrier()); ok {
					named[i] = re.Rank
				}
			}(i, comms[r])
		}
		wg.Wait()
		for i, r := range named {
			if r != 1 {
				t.Fatalf("rep %d: survivor %d's barrier named rank %d, want the lowest dead rank 1 (all: %v)",
					rep, survivors[i], r, named)
			}
		}
	}
}

func TestManyToOne(t *testing.T) {
	const n = 16
	err := Run(n, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			got := make([]bool, n)
			for i := 1; i < n; i++ {
				b := make([]byte, 1)
				if err := mpi.Recv(c, b, i, 3); err != nil {
					return err
				}
				got[b[0]] = true
			}
			for i := 1; i < n; i++ {
				if !got[i] {
					return fmt.Errorf("missing message from %d", i)
				}
			}
			return nil
		}
		return mpi.Send(c, []byte{byte(c.Rank())}, 0, 3)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNaiveAllToAll(t *testing.T) {
	// A hand-rolled all-to-all over the raw interface: every rank sends a
	// distinctive pattern to every other rank.
	const n = 6
	const sz = 128
	err := Run(n, func(c mpi.Comm) error {
		var reqs []mpi.Request
		recv := make([][]byte, n)
		for p := 0; p < n; p++ {
			if p == c.Rank() {
				continue
			}
			recv[p] = make([]byte, sz)
			reqs = append(reqs, c.Irecv(recv[p], p, 0))
		}
		for p := 0; p < n; p++ {
			if p == c.Rank() {
				continue
			}
			out := bytes.Repeat([]byte{byte(c.Rank()*16 + p)}, sz)
			reqs = append(reqs, c.Isend(out, p, 0))
		}
		if err := mpi.WaitAll(reqs); err != nil {
			return err
		}
		for p := 0; p < n; p++ {
			if p == c.Rank() {
				continue
			}
			want := byte(p*16 + c.Rank())
			for _, b := range recv[p] {
				if b != want {
					return fmt.Errorf("rank %d from %d: got %d want %d", c.Rank(), p, b, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNowMonotonic(t *testing.T) {
	comms := NewWorld(1)
	a := comms[0].Now()
	time.Sleep(time.Millisecond)
	b := comms[0].Now()
	if b <= a {
		t.Errorf("Now not increasing: %v then %v", a, b)
	}
}

func TestSelfSend(t *testing.T) {
	c := NewWorld(1)[0]
	buf := []byte("to myself")
	sr := c.Isend(buf, 0, 5) // no receive posted yet: the send queues
	got := make([]byte, len(buf))
	if err := mpi.Recv(c, got, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := sr.Wait(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatalf("self-send got %q, want %q", got, buf)
	}
}

// TestAwaitTimeoutAbandonsOp checks that an expired Await reports a typed
// timeout and that the abandoned receive is never recycled: its late match
// still lands in its own buffer, and later operations get fresh requests.
func TestAwaitTimeoutAbandonsOp(t *testing.T) {
	comms := NewWorld(2)
	late := make([]byte, 4)
	rr := comms[1].Irecv(late, 0, 3)
	_, err := rr.Await(5 * time.Millisecond)
	var te *mpi.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("Await on an unmatched receive = %v, want *mpi.TimeoutError", err)
	}
	if err := mpi.Send(comms[0], []byte("late"), 1, 3); err != nil {
		t.Fatal(err)
	}
	if string(late) != "late" {
		t.Fatalf("abandoned receive buffer = %q, want the late message", late)
	}
	for i := 0; i < 4; i++ {
		msg := []byte{byte('a' + i)}
		got := make([]byte, 1)
		r := comms[1].Irecv(got, 0, 3)
		if r == rr {
			t.Fatal("abandoned request was recycled")
		}
		if err := mpi.Send(comms[0], msg, 1, 3); err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round %d got %q, want %q", i, got, msg)
		}
	}
	if string(late) != "late" {
		t.Fatalf("abandoned receive buffer rewritten to %q", late)
	}
}

// TestKillRankFailsPendingAndFutureOps checks that killing a rank fails a
// receive already pending on it and every later operation toward it with
// a *mpi.RankError naming it, while pairs between live ranks keep working.
func TestKillRankFailsPendingAndFutureOps(t *testing.T) {
	comms, w := NewWorldComms(3)
	pending := comms[0].Irecv(make([]byte, 8), 2, 0)
	if err := w.KillRank(2); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]mpi.Request{
		"pending recv": pending,
		"later send":   comms[1].Isend(make([]byte, 8), 2, 0),
		"later recv":   comms[1].Irecv(make([]byte, 8), 2, 0),
	} {
		var re *mpi.RankError
		if err := r.Wait(); !errors.As(err, &re) || re.Rank != 2 {
			t.Fatalf("%s: error %v, want *mpi.RankError for rank 2", name, err)
		}
	}
	if err := w.KillRank(2); err != nil {
		t.Fatalf("killing a dead rank again: %v", err)
	}
	got := make([]byte, 2)
	rr := comms[1].Irecv(got, 0, 0)
	if err := mpi.Send(comms[0], []byte("ok"), 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := rr.Wait(); err != nil || string(got) != "ok" {
		t.Fatalf("live pair after kill: %q, %v", got, err)
	}
}
