package simnet

import (
	"fmt"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// benchCluster builds an N-machine cluster spread round-robin over a chain
// of switches (16 machines per switch), the shape that stresses both the
// machine links and the shared switch-to-switch trunks.
func benchCluster(n int) *topology.Graph {
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

// benchConfig is the engine cost model. jitter > 0 staggers every message
// activation so (nearly) every event forces a max-min rate recompute — the
// worst case for the solver; jitter = 0 is the synchronized-wave regime
// harness cells run, where coincident events batch under one recompute.
func benchConfig(g *topology.Graph, jitter float64) Config {
	return Config{
		Graph:          g,
		LinkBandwidth:  DefaultLinkBandwidth,
		StartupLatency: DefaultStartupLatency,
		MinEfficiency:  DefaultMinEfficiency,
		JitterFrac:     jitter,
		JitterSeed:     1,
	}
}

// postAllAAPC is the LAM-style exchange on n ranks: every rank posts all
// its receives and sends up front, copies messages per peer under distinct
// tags, creating O(copies·N^2) concurrent flows; copies > 1 gives the rate
// solver aggregates of weight above 1. Each rank's send and receive buffer
// is allocated here, before the run, and shared by all its messages (only
// sizes matter), so the benchmark measures the engine, not the host
// allocator.
func postAllAAPC(n, msize, copies int) func(c mpi.Comm) error {
	sbuf := make([][]byte, n)
	rbuf := make([][]byte, n)
	for i := range sbuf {
		sbuf[i] = make([]byte, msize)
		rbuf[i] = make([]byte, msize)
	}
	return func(c mpi.Comm) error {
		me := c.Rank()
		reqs := make([]mpi.Request, 0, 2*copies*(n-1))
		for off := 1; off < n; off++ {
			p := (me + off) % n
			for tag := 0; tag < copies; tag++ {
				reqs = append(reqs, c.Irecv(rbuf[me], p, tag))
			}
		}
		for off := 1; off < n; off++ {
			p := (me + off) % n
			for tag := 0; tag < copies; tag++ {
				reqs = append(reqs, c.Isend(sbuf[me], p, tag))
			}
		}
		return mpi.WaitAll(reqs)
	}
}

// windowedAAPC keeps at most window exchanges outstanding per rank — the
// pattern production all-to-all implementations use at scale. Buffers are a
// per-rank ring reused across waves (they are free after each WaitAll), so
// the benchmark measures the engine, not the host allocator.
func windowedAAPC(msize, window int) func(c mpi.Comm) error {
	return func(c mpi.Comm) error {
		n := c.Size()
		sbuf := make([][]byte, window)
		rbuf := make([][]byte, window)
		for i := range sbuf {
			sbuf[i] = make([]byte, msize)
			rbuf[i] = make([]byte, msize)
		}
		reqs := make([]mpi.Request, 0, 2*window)
		k := 0
		for off := 1; off < n; off++ {
			p := (c.Rank() + off) % n
			q := (c.Rank() - off + n) % n
			reqs = append(reqs, c.Irecv(rbuf[k], q, 0))
			reqs = append(reqs, c.Isend(sbuf[k], p, 0))
			k++
			if k == window {
				if err := mpi.WaitAll(reqs); err != nil {
					return err
				}
				reqs, k = reqs[:0], 0
			}
		}
		return mpi.WaitAll(reqs)
	}
}

// BenchmarkSimAAPC measures raw engine throughput on AAPC runs. N=32, N=96
// and N=128 use the post-all (LAM) pattern with O(N^2) concurrent flows and
// jittered activations — the per-event-recompute worst case for the solver;
// N=96 is the LAM cell of the sim_chain96 end-to-end workload (96 ranks, 16
// per switch on a 6-switch chain, 64 KiB, jitter 0.25). N=512 uses a
// windowed exchange (window 32) without jitter, the synchronized-wave
// regime large harness cells actually run (jittering half a million
// 512-rank flows individually is intractable for any full-recompute max-min
// solver). The custom metrics report discrete events per wall-clock second,
// flows per run and the share of solver rounds replayed from the previous
// solve; allocs/op tracks solver garbage.
func BenchmarkSimAAPC(b *testing.B) {
	cases := []struct {
		n      int
		window int     // 0 = post-all
		jitter float64 // activation jitter fraction
		msize  int
	}{
		{n: 32, jitter: 0.25, msize: 64 << 10},
		{n: 96, jitter: 0.25, msize: 64 << 10},
		{n: 128, jitter: 0.25, msize: 64 << 10},
		// 512 ranks move 261k messages; the paper's 8 KB base size keeps the
		// benchmark's real byte movement (copied on every delivery) sane.
		{n: 512, window: 32, msize: 8 << 10},
	}
	for _, tc := range cases {
		g := benchCluster(tc.n)
		cfg := benchConfig(g, tc.jitter)
		var fn func(c mpi.Comm) error
		if tc.window > 0 {
			fn = windowedAAPC(tc.msize, tc.window)
		} else {
			fn = postAllAAPC(tc.n, tc.msize, 1)
		}
		b.Run(fmt.Sprintf("N=%d", tc.n), func(b *testing.B) {
			b.ReportAllocs()
			var events, flows, replayed, rounds int64
			for i := 0; i < b.N; i++ {
				w, err := NewWorld(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := w.Run(fn); err != nil {
					b.Fatal(err)
				}
				events += w.Events()
				flows += int64(w.FlowCount())
				r, t := w.SolverRounds()
				replayed += r
				rounds += t
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(flows)/float64(b.N), "flows/run")
			b.ReportMetric(float64(replayed)/float64(rounds), "replayed/round")
		})
	}
}
