package alltoall

import (
	"fmt"
	"sync"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/mem"
	"github.com/aapc-sched/aapcsched/internal/mpi/tcp"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/syncplan"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// benchChainCluster builds an n-machine cluster spread round-robin over a
// chain of switches (16 machines per switch) — the same shape the simulator
// benchmarks use, so schedules have real multi-phase structure and sync
// traffic instead of degenerating to a single phase.
func benchChainCluster(n int) *topology.Graph {
	g := topology.New()
	nsw := (n + 15) / 16
	sw := make([]int, nsw)
	for i := range sw {
		sw[i] = g.MustAddSwitch(fmt.Sprintf("s%d", i))
		if i > 0 {
			g.MustConnect(sw[i-1], sw[i])
		}
	}
	for i := 0; i < n; i++ {
		m := g.MustAddMachine(fmt.Sprintf("n%d", i))
		g.MustConnect(sw[i/16], m)
	}
	return g.MustValidate()
}

// benchScheduled compiles the paper's pairwise-synchronized routine for the
// n-machine chain cluster.
func benchScheduled(b *testing.B, n int) *Scheduled {
	b.Helper()
	g := benchChainCluster(n)
	s, err := schedule.Build(g)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := syncplan.Build(g, s)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := NewScheduled(s, plan, PairwiseSync)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// runAlltoallBench drives one full all-to-all per iteration: every rank runs
// fn concurrently, the iteration completes when all ranks return. Reported
// ns/op is the wall time of a whole exchange; allocs/op and B/op are the
// process-wide totals per exchange (all ranks, all transport goroutines) —
// the figure the data-plane work optimizes. copies, when non-nil, returns
// the transport's cumulative userspace payload-copy count; its growth is
// reported as copies/op, the zero-copy path's figure of merit.
func runAlltoallBench(b *testing.B, comms []mpi.Comm, fn Func, msize int, copies func() uint64) {
	b.Helper()
	n := len(comms)
	bufs := make([]*Contig, n)
	for r := range bufs {
		bufs[r] = NewContig(n, msize)
		for p := 0; p < n; p++ {
			blk := bufs[r].SendBlock(p)
			for i := range blk {
				blk[i] = byte(r*31 + p*7 + i)
			}
		}
	}
	errs := make([]error, n)
	b.SetBytes(int64(n * (n - 1) * msize))
	b.ReportAllocs()
	var copies0 uint64
	if copies != nil {
		copies0 = copies()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		wg.Add(n)
		for r := 0; r < n; r++ {
			go func(r int) {
				defer wg.Done()
				errs[r] = fn(comms[r], bufs[r], msize)
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				b.Fatalf("rank %d: %v", r, err)
			}
		}
	}
	b.StopTimer()
	if copies != nil {
		b.ReportMetric(float64(copies()-copies0)/float64(b.N), "copies/op")
	}
}

// transportBenchGrid is the msize × world-size grid both transport
// benchmarks share: small messages (the regime the paper's Figure 1 targets
// and where per-message overhead dominates), a mid size, and a large one.
var transportBenchGrid = []struct {
	n     int
	msize int
}{
	{4, 64},
	{4, 1024},
	{4, 65536},
	{8, 64},
	{8, 1024},
	{8, 65536},
	{16, 64},
	{16, 1024},
}

// BenchmarkMemAlltoall measures the scheduled routine over the in-process
// transport: no sockets, so what remains is matching-engine and per-op
// bookkeeping cost. Pre-posted receives are filled with a single copy, so
// there is no copies/op figure to track here.
func BenchmarkMemAlltoall(b *testing.B) {
	for _, tc := range transportBenchGrid {
		b.Run(fmt.Sprintf("n=%d/msize=%d", tc.n, tc.msize), func(b *testing.B) {
			sc := benchScheduled(b, tc.n)
			comms := mem.NewWorld(tc.n)
			runAlltoallBench(b, comms, sc.Fn(), tc.msize, nil)
		})
	}
}

// BenchmarkTCPAlltoall measures the scheduled routine over loopback TCP with
// the default resilience (sequence numbers, acks, retransmit buffers) — the
// deployable data plane whose syscall and allocation cost this suite tracks.
func BenchmarkTCPAlltoall(b *testing.B) {
	for _, tc := range transportBenchGrid {
		b.Run(fmt.Sprintf("n=%d/msize=%d", tc.n, tc.msize), func(b *testing.B) {
			sc := benchScheduled(b, tc.n)
			comms, closeWorld, err := tcp.NewWorld(tc.n)
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				if err := closeWorld(); err != nil {
					b.Fatal(err)
				}
			}()
			runAlltoallBench(b, comms, sc.Fn(), tc.msize, func() uint64 {
				return comms[0].(interface{ TransportStats() tcp.Stats }).TransportStats().PayloadCopies
			})
		})
	}
}
