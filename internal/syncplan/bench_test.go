package syncplan

import (
	"fmt"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// chainCluster builds n machines spread 16 per switch over a chain of
// switches: the harness scale shape, whose long trunk paths and N²/4
// phases make the conflict DAG largest.
func chainCluster(n int) *topology.Graph {
	g := topology.New()
	sw := make([]int, (n+15)/16)
	for i := range sw {
		sw[i] = g.MustAddSwitch(fmt.Sprintf("s%d", i))
		if i > 0 {
			g.MustConnect(sw[i-1], sw[i])
		}
	}
	for i := 0; i < n; i++ {
		g.MustConnect(sw[i/16], g.MustAddMachine(fmt.Sprintf("n%d", i)))
	}
	return g.MustValidate()
}

// BenchmarkBuild plans the paper's schedule on the chain. Run it with
// -benchmem: B/op is the memory claim (O(messages × path length), no
// n²-bit structure), so the N=512 plan must complete.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{96, 256, 512} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			g := chainCluster(n)
			s, err := schedule.Build(g)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := Build(g, s)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(plan.NumSyncs()), "syncs")
			}
		})
	}
}
