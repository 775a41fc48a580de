package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

var quickCfg = &quick.Config{MaxCount: 150}

// clusterFromSeed derives a random valid cluster from a seed.
func clusterFromSeed(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	return RandomCluster(RandomOptions{
		Switches: 1 + rng.Intn(7),
		Machines: 2 + rng.Intn(20),
		Rand:     rng,
	})
}

// TestQuickPathProperties: for any cluster and machine pair, the path starts
// at the source, ends at the destination, chains contiguously, repeats no
// edge, and the reverse path is the edge-wise mirror.
func TestQuickPathProperties(t *testing.T) {
	prop := func(seed int64, a, b uint) bool {
		g := clusterFromSeed(seed)
		m := g.NumMachines()
		src := int(a % uint(m))
		dst := int(b % uint(m))
		if src == dst {
			return len(g.PathBetweenRanks(src, dst)) == 0
		}
		path := g.PathBetweenRanks(src, dst)
		if len(path) == 0 ||
			path[0].U != g.MachineID(src) ||
			path[len(path)-1].V != g.MachineID(dst) {
			return false
		}
		seen := make(map[Edge]bool)
		for i, e := range path {
			if seen[e] || seen[e.Reverse()] {
				return false // a tree path never revisits a link
			}
			seen[e] = true
			if i > 0 && path[i-1].V != e.U {
				return false
			}
		}
		rev := g.PathBetweenRanks(dst, src)
		if len(rev) != len(path) {
			return false
		}
		for i := range rev {
			if rev[i] != path[len(path)-1-i].Reverse() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickAppendPathEdgeIDsInOrder: the allocation-free walk yields the
// same edge IDs as PathIDs, in the same order, after any existing prefix.
func TestQuickAppendPathEdgeIDsInOrder(t *testing.T) {
	prop := func(seed int64, a, b uint) bool {
		g := clusterFromSeed(seed)
		idx := g.NewEdgeIndex()
		m := uint(g.NumMachines())
		u, v := g.MachineID(int(a%m)), g.MachineID(int(b%m))
		got := g.AppendPathEdgeIDs(idx, u, v, []int32{-7})
		want := g.PathIDs(idx, u, v)
		if len(got) != len(want)+1 || got[0] != -7 {
			return false
		}
		for i, id := range want {
			if got[i+1] != int32(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickLinkLoadConservation: summing |Mu|*|Mv| over links equals summing
// path lengths over all ordered machine pairs (every message crosses each of
// its links once), and every link load is positive.
func TestQuickLinkLoadConservation(t *testing.T) {
	prop := func(seed int64) bool {
		g := clusterFromSeed(seed)
		loadSum := 0
		for _, ll := range g.LinkLoads() {
			if ll.Load < 0 || ll.MachinesU+ll.MachinesV != g.NumMachines() {
				return false
			}
			loadSum += ll.Load
		}
		pathSum := 0
		m := g.NumMachines()
		for s := 0; s < m; s++ {
			for d := 0; d < m; d++ {
				if s != d {
					pathSum += len(g.PathBetweenRanks(s, d))
				}
			}
		}
		// Each ordered pair's path has one directed edge per link crossed;
		// link load counts one direction only, so pathSum = 2 * loadSum.
		return pathSum == 2*loadSum
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickParseFormatRoundTrip: Format then Parse reproduces an isomorphic
// cluster (same analysis outputs).
func TestQuickParseFormatRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		g := clusterFromSeed(seed)
		g2, err := ParseString(g.Format())
		if err != nil {
			return false
		}
		if g2.NumMachines() != g.NumMachines() ||
			g2.NumSwitches() != g.NumSwitches() ||
			g2.NumLinks() != g.NumLinks() ||
			g2.AAPCLoad() != g.AAPCLoad() {
			return false
		}
		return g2.Format() == g.Format()
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickBestCaseConsistent: BestCaseTime and PeakAggregateThroughput are
// two views of the same bound.
func TestQuickBestCaseConsistent(t *testing.T) {
	prop := func(seed int64, bwRaw uint) bool {
		g := clusterFromSeed(seed)
		bw := float64(bwRaw%1000+1) * 1e5
		msize := 1 << 14
		m := float64(g.NumMachines())
		best := g.BestCaseTime(msize, bw)
		peak := g.PeakAggregateThroughput(bw)
		// total data / best time == peak throughput
		total := m * (m - 1) * float64(msize)
		diff := total/best - peak
		return diff < 1e-6*peak && diff > -1e-6*peak
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickEdgeIndexBijective: the dense edge index is a bijection over the
// 2 * numLinks directed edges.
func TestQuickEdgeIndexBijective(t *testing.T) {
	prop := func(seed int64) bool {
		g := clusterFromSeed(seed)
		idx := g.NewEdgeIndex()
		if idx.Len() != 2*g.NumLinks() {
			return false
		}
		for i := 0; i < idx.Len(); i++ {
			if idx.ID(idx.Edge(i)) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickLemma3PathDisjointness verifies Lemma 3 of the paper directly:
// in a tree, for distinct nodes x, y, z, path(x, y) and path(y, z) share no
// directed edge.
func TestQuickLemma3PathDisjointness(t *testing.T) {
	prop := func(seed int64, a, b, c uint) bool {
		g := clusterFromSeed(seed)
		n := g.NumNodes()
		x := int(a % uint(n))
		y := int(b % uint(n))
		z := int(c % uint(n))
		if x == y || y == z || x == z {
			return true // lemma requires distinct nodes
		}
		onXY := make(map[Edge]bool)
		for _, e := range g.Path(x, y) {
			onXY[e] = true
		}
		for _, e := range g.Path(y, z) {
			if onXY[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}
