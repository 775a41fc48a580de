package collect

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/faults"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/mem"
	"github.com/aapc-sched/aapcsched/internal/mpi/tcp"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/simnet"
)

// Causal-linking invariants, exercised against every transport: every
// cross-rank data receive must carry exactly one causal edge to its true
// sender span, and that must stay true when the wire misbehaves —
// retransmitted frames reuse their trace context, and the duplicate discard
// below the matcher keeps a re-delivered message from minting a second
// edge — and when the data sends are strided datatype sends.

const linkTestRanks = 4

// linkStride is the gap the strided variant leaves between 16-byte blocks
// of each send: the payload is gathered out of a sparse base buffer.
const linkStride = 24

// tracedExchange sends one patterned message per directed pair through an
// instrumented comm, several rounds, and returns per-rank recorders. With
// strided set, every send is a Vector datatype send out of a sparse base
// buffer (receives stay contiguous), so typed data sends are linked too.
func tracedExchange(t *testing.T, rounds, msize int, strided bool, run func(fn func(c mpi.Comm) error) error) []*obsv.Recorder {
	t.Helper()
	recs := make([]*obsv.Recorder, linkTestRanks)
	for i := range recs {
		recs[i] = obsv.NewRecorder(i)
	}
	err := run(func(raw mpi.Comm) error {
		c := obsv.Instrument(raw, recs[raw.Rank()])
		me, n := c.Rank(), c.Size()
		for round := 0; round < rounds; round++ {
			reqs := make([]mpi.Request, 0, 2*(n-1))
			bufs := make([][]byte, n)
			for p := 0; p < n; p++ {
				if p == me {
					continue
				}
				out := make([]byte, msize)
				for i := range out {
					out[i] = byte(me + p + round + i)
				}
				send := mpi.Op{Dir: mpi.DirSend, Buf: out, Peer: p, Tag: 7}
				if strided {
					send.Type = mpi.Vector(msize/16, 16, linkStride)
					send.Buf = make([]byte, send.Type.Extent())
					send.Type.Unpack(send.Buf, out)
				}
				reqs = append(reqs, c.Post(send))
				bufs[p] = make([]byte, msize)
				reqs = append(reqs, c.Irecv(bufs[p], p, 7))
			}
			if err := mpi.WaitAllTimeout(reqs, 20*time.Second); err != nil {
				return err
			}
			for p := 0; p < n; p++ {
				if p == me {
					continue
				}
				for i, b := range bufs[p] {
					if b != byte(p+me+round+i) {
						return fmt.Errorf("rank %d: corrupt byte %d from %d round %d", me, i, p, round)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	return recs
}

// checkLinking asserts the causal bijection on the recorded logs: every
// cross-rank data recv is linked, every link resolves to a real send span
// addressed to the receiver, and no send span is claimed twice.
func checkLinking(t *testing.T, recs []*obsv.Recorder, wantRecvs int) {
	t.Helper()
	store := NewStore()
	store.SetCommonClock(true)
	for _, r := range recs {
		store.AddEvents(r.Events())
	}
	byRank := store.ByRank()

	type edge struct {
		rank int
		seq  uint64
	}
	sends := make(map[edge]obsv.Event)
	for r, evs := range byRank {
		for _, ev := range evs {
			if ev.Kind == obsv.KindSend {
				sends[edge{r, ev.Seq}] = ev
			}
		}
	}

	claimed := make(map[edge]edge) // sender identity -> claiming recv identity
	recvs := 0
	for r, evs := range byRank {
		for _, ev := range evs {
			if ev.Kind != obsv.KindRecv || ev.Peer == r {
				continue
			}
			recvs++
			if ev.LinkSeq == 0 {
				t.Errorf("rank %d recv seq %d from %d: no causal link", r, ev.Seq, ev.Peer)
				continue
			}
			if ev.Deliver <= 0 {
				t.Errorf("rank %d recv seq %d: linked but no delivery stamp", r, ev.Seq)
			}
			src := edge{ev.Peer, ev.LinkSeq}
			send, ok := sends[src]
			if !ok {
				t.Errorf("rank %d recv seq %d: link to nonexistent send (%d, %d)", r, ev.Seq, ev.Peer, ev.LinkSeq)
				continue
			}
			if send.Peer != r {
				t.Errorf("rank %d recv seq %d: linked send was addressed to %d", r, ev.Seq, send.Peer)
			}
			if prev, dup := claimed[src]; dup {
				t.Errorf("send (%d, %d) claimed by two recvs: (%d,%d) and (%d,%d) — duplicate causal edge",
					src.rank, src.seq, prev.rank, prev.seq, r, ev.Seq)
			}
			claimed[src] = edge{r, ev.Seq}
		}
	}
	if recvs != wantRecvs {
		t.Errorf("saw %d cross-rank recv spans, want %d", recvs, wantRecvs)
	}
}

// linkCase is one transport under the linking test. setup builds a fresh
// runner per subtest (fault injectors are stateful); a non-nil injector
// must have fired, or the case did not exercise what it claims.
type linkCase struct {
	name  string
	setup func(t *testing.T) (func(fn func(c mpi.Comm) error) error, *faults.Injector)
}

// injected builds an injector from a plan in the fault DSL.
func injected(t *testing.T, plan string) *faults.Injector {
	t.Helper()
	p, err := faults.ParsePlanString(plan)
	if err != nil {
		t.Fatal(err)
	}
	return faults.New(p)
}

func linkCases() []linkCase {
	return []linkCase{
		{"mem", func(t *testing.T) (func(fn func(c mpi.Comm) error) error, *faults.Injector) {
			return func(fn func(c mpi.Comm) error) error { return mem.Run(linkTestRanks, fn) }, nil
		}},
		// The comm-level injector wraps the traced transport: tracing must
		// survive the wrapper so attribution still works on exactly the runs
		// where faults are being injected.
		{"mem-commdelay", func(t *testing.T) (func(fn func(c mpi.Comm) error) error, *faults.Injector) {
			inj := injected(t, "delay 1 2 200us count 2")
			return func(fn func(c mpi.Comm) error) error {
				return mem.Run(linkTestRanks, func(c mpi.Comm) error { return fn(inj.Wrap(c)) })
			}, inj
		}},
		{"tcp", func(t *testing.T) (func(fn func(c mpi.Comm) error) error, *faults.Injector) {
			return func(fn func(c mpi.Comm) error) error { return tcp.Run(linkTestRanks, fn) }, nil
		}},
		// Dropped connections make the transport reconnect and retransmit.
		// A retransmitted frame carries the same trace context; the receive
		// cursor discards the re-delivered copy, so the causal edge count
		// must not change.
		{"tcp-reconnect", func(t *testing.T) (func(fn func(c mpi.Comm) error) error, *faults.Injector) {
			inj := injected(t, "seed 7\ndrop 0 1 count 2\ndrop 2 3 after 1 count 1\ndrop 1 2 count 1")
			return func(fn func(c mpi.Comm) error) error {
				return tcp.Run(linkTestRanks, fn, tcp.WithFaults(inj))
			}, inj
		}},
		{"distributed-shm", func(t *testing.T) (func(fn func(c mpi.Comm) error) error, *faults.Injector) {
			return distributedRunner(linkTestRanks), nil
		}},
		{"distributed-tcp", func(t *testing.T) (func(fn func(c mpi.Comm) error) error, *faults.Injector) {
			return distributedRunner(linkTestRanks, tcp.WithoutSharedMemory()), nil
		}},
		{"simnet", func(t *testing.T) (func(fn func(c mpi.Comm) error) error, *faults.Injector) {
			return func(fn func(c mpi.Comm) error) error {
				w, err := simnet.NewWorld(simnet.Config{Graph: starGraph(t, linkTestRanks)})
				if err != nil {
					return err
				}
				return w.Run(fn)
			}, nil
		}},
	}
}

// TestCausalLinking checks the causal bijection on every transport, with
// contiguous and with strided data sends.
func TestCausalLinking(t *testing.T) {
	const rounds = 3
	for _, tc := range linkCases() {
		for _, strided := range []bool{false, true} {
			name := tc.name
			if strided {
				name += "/strided"
			}
			t.Run(name, func(t *testing.T) {
				run, inj := tc.setup(t)
				recs := tracedExchange(t, rounds, 256, strided, run)
				if inj != nil && len(inj.Events()) == 0 {
					t.Fatal("no faults fired; the case is vacuous")
				}
				checkLinking(t, recs, rounds*linkTestRanks*(linkTestRanks-1))
			})
		}
	}
}

// distributedRunner runs fn on n ranks joined through a real coordinator
// rendezvous — the aapcnode deployment path — on this one host, so the
// mesh links through shm pair segments unless opts force sockets.
func distributedRunner(n int, opts ...tcp.JoinOption) func(fn func(c mpi.Comm) error) error {
	return func(fn func(c mpi.Comm) error) error {
		coord, err := tcp.StartCoordinator("127.0.0.1:0", n)
		if err != nil {
			return err
		}
		defer coord.Close()
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, closeFn, err := tcp.Join(coord.Addr(), opts...)
				if err != nil {
					errs <- err
					return
				}
				err = fn(c)
				// Close only after every rank is done with the mesh.
				if berr := c.Barrier(); err == nil {
					err = berr
				}
				closeFn()
				errs <- err
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
}
