package conformance

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/aapc-sched/aapcsched/internal/faults"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/tcp"
)

// xfer is one randomly drawn typed transfer. The payload size factors as
// A*B*C so the sender's strided view (A blocks of B*C bytes) and the
// receiver's differently-strided view (A*B blocks of C bytes) always cover
// the same byte count while disagreeing on layout.
type xfer struct {
	A, B, C    int
	SPad, RPad int // gap bytes between consecutive blocks
	Seed       int64
}

// Generate implements quick.Generator with always-valid dimensions.
func (xfer) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(xfer{
		A:    1 + r.Intn(5),
		B:    1 + r.Intn(5),
		C:    1 + r.Intn(6),
		SPad: r.Intn(9),
		RPad: r.Intn(9),
		Seed: r.Int63(),
	})
}

// layouts builds the two views; rdt degenerates to a contiguous layout
// whenever RPad is zero, so the strided<->contiguous corner is drawn too.
func (x xfer) layouts() (sdt, rdt mpi.Datatype) {
	sdt = mpi.Vector(x.A, x.B*x.C, x.B*x.C+x.SPad)
	if x.RPad == 0 {
		rdt = mpi.Contiguous(x.A * x.B * x.C)
	} else {
		rdt = mpi.Vector(x.A*x.B, x.C, x.C+x.RPad)
	}
	return sdt, rdt
}

// runTyped executes the transfer on a 2-rank world: rank 0 sends its strided
// view, rank 1 receives into its own view, and the property holds when the
// packed byte streams agree AND no byte outside the receiver's blocks was
// touched.
func (x xfer) runTyped(runner func(fn func(c mpi.Comm) error) error) error {
	sdt, rdt := x.layouts()
	payload := make([]byte, sdt.Size())
	rng := rand.New(rand.NewSource(x.Seed))
	rng.Read(payload)
	return runner(func(c mpi.Comm) error {
		const tag = 7
		if c.Rank() == 0 {
			base := make([]byte, sdt.Extent())
			for i := range base {
				base[i] = 0xEE
			}
			sdt.Unpack(base, payload)
			_, err := c.Post(mpi.Op{Dir: mpi.DirSend, Buf: base, Type: sdt, Peer: 1, Tag: tag}).Await(quickOpTimeout)
			return err
		}
		base := make([]byte, rdt.Extent())
		for i := range base {
			base[i] = 0xEE
		}
		if _, err := c.Post(mpi.Op{Dir: mpi.DirRecv, Buf: base, Type: rdt, Peer: 0, Tag: tag}).Await(quickOpTimeout); err != nil {
			return err
		}
		want := make([]byte, rdt.Extent())
		for i := range want {
			want[i] = 0xEE
		}
		rdt.Unpack(want, payload)
		if !bytes.Equal(base, want) {
			got := make([]byte, rdt.Size())
			rdt.Pack(got, base)
			if !bytes.Equal(got, payload) {
				return fmt.Errorf("packed stream diverged for %+v", x)
			}
			return fmt.Errorf("bytes outside receive blocks clobbered for %+v", x)
		}
		return nil
	})
}

const quickOpTimeout = 30 * time.Second // far above any healthy transfer

// TestTypedTransferQuick is the cross-transport property test: any randomly
// drawn strided<->strided (or strided<->contiguous) transfer is
// byte-identical after packing on every transport — the conformance set
// (mem, tcp, distributed over shm links and forced tcp, simnet) plus a TCP
// world whose first data frame per pair is force-dropped so delivery rides
// the reconnect + retransmit path.
func TestTypedTransferQuick(t *testing.T) {
	dropFirst := &faults.Plan{Seed: 99, Rules: []faults.Rule{
		{Kind: faults.Drop, Src: faults.Any, Dst: faults.Any, Count: 1},
	}}
	runners := transports(t, 2)
	runners["tcp-reconnect"] = func(fn func(c mpi.Comm) error) error {
		return tcp.Run(2, fn, tcp.WithFaults(faults.New(dropFirst)))
	}
	for name, runner := range runners {
		name, runner := name, runner
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := &quick.Config{
				MaxCount: 10,
				Rand:     rand.New(rand.NewSource(int64(len(name)) * 7919)),
			}
			if err := quick.Check(func(x xfer) bool {
				if err := x.runTyped(runner); err != nil {
					t.Log(err)
					return false
				}
				return true
			}, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTypedTransferReconnectRecovers pins the fault variant actually
// exercising the resilience layer: with the first frame of every pair
// dropped, the world must record reconnects or retransmits, not silently
// deliver on the first try.
func TestTypedTransferReconnectRecovers(t *testing.T) {
	plan := &faults.Plan{Seed: 7, Rules: []faults.Rule{
		{Kind: faults.Drop, Src: faults.Any, Dst: faults.Any, Count: 1},
	}}
	var recovered bool
	err := tcp.Run(2, func(c mpi.Comm) error {
		x := xfer{A: 3, B: 2, C: 4, SPad: 3, RPad: 1, Seed: 11}
		sdt, rdt := x.layouts()
		payload := make([]byte, sdt.Size())
		rand.New(rand.NewSource(x.Seed)).Read(payload)
		const tag = 2
		if c.Rank() == 0 {
			base := make([]byte, sdt.Extent())
			sdt.Unpack(base, payload)
			if _, err := c.Post(mpi.Op{Dir: mpi.DirSend, Buf: base, Type: sdt, Peer: 1, Tag: tag}).Await(quickOpTimeout); err != nil {
				return err
			}
		} else {
			base := make([]byte, rdt.Extent())
			if _, err := c.Post(mpi.Op{Dir: mpi.DirRecv, Buf: base, Type: rdt, Peer: 0, Tag: tag}).Await(quickOpTimeout); err != nil {
				return err
			}
			got := make([]byte, rdt.Size())
			rdt.Pack(got, base)
			if !bytes.Equal(got, payload) {
				return fmt.Errorf("payload diverged across reconnect")
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// World stats are shared; sample from one rank to keep the flag
		// single-writer.
		if c.Rank() == 0 {
			s := c.(interface{ TransportStats() tcp.Stats }).TransportStats()
			recovered = s.Reconnects > 0 || s.Retransmits > 0
		}
		return nil
	}, tcp.WithFaults(faults.New(plan)))
	if err != nil {
		t.Fatal(err)
	}
	if !recovered {
		t.Fatal("fault plan injected no reconnect/retransmit: property test not covering recovery")
	}
}
