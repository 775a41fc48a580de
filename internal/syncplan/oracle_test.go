package syncplan

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// oracleBuild is the original all-pairs plan builder, kept as the oracle for
// build: it materializes one dependence edge per conflicting pair and
// reduces the DAG with memoized n²-bit reachability sets.
func oracleBuild(g *topology.Graph, s *schedule.Schedule, allowSamePhase bool) (*Plan, error) {
	idx := g.NewEdgeIndex()

	// msgs enumerates scheduled messages with a dense index in phase order.
	type node struct {
		msg   schedule.Message
		phase int
	}
	var nodes []node
	id := make(map[schedule.Message]int)
	for pi, p := range s.Phases {
		for _, m := range p {
			if _, dup := id[m]; dup {
				return nil, fmt.Errorf("syncplan: message %v scheduled twice", m)
			}
			id[m] = len(nodes)
			nodes = append(nodes, node{msg: m, phase: pi})
		}
	}

	// usersOf[e] lists message indices crossing directed edge e, in phase
	// order (nodes are appended in phase order already).
	usersOf := make([][]int, idx.Len())
	for i, nd := range nodes {
		for _, e := range g.PathIDs(idx, g.MachineID(nd.msg.Src), g.MachineID(nd.msg.Dst)) {
			usersOf[e] = append(usersOf[e], i)
		}
	}

	// Dependence graph: adjacency via successor sets. An edge u -> v for
	// every pair of same-link users with phase(u) < phase(v).
	succ := make([]map[int]bool, len(nodes))
	for i := range succ {
		succ[i] = make(map[int]bool)
	}
	conflictPairs := 0
	for e := range usersOf {
		users := usersOf[e]
		for a := 0; a < len(users); a++ {
			for b := a + 1; b < len(users); b++ {
				u, v := users[a], users[b]
				if nodes[u].phase == nodes[v].phase {
					if allowSamePhase {
						continue
					}
					return nil, fmt.Errorf(
						"syncplan: schedule not contention-free: %v and %v share a link in phase %d",
						nodes[u].msg, nodes[v].msg, nodes[u].phase)
				}
				if !succ[u][v] {
					succ[u][v] = true
					conflictPairs++
				}
			}
		}
	}

	// Transitive reduction. Process candidates in decreasing phase gap so
	// that reachability via shorter dependencies is available; since the DAG
	// is leveled by phase, a DFS that avoids the candidate edge itself
	// decides redundancy. For efficiency, compute reachability per node with
	// memoized bitsets over the (phase-ordered) node indices.
	reach := make([][]uint64, len(nodes))
	words := (len(nodes) + 63) / 64
	var computeReach func(u int)
	computeReach = func(u int) {
		if reach[u] != nil {
			return
		}
		r := make([]uint64, words)
		// Mark direct successors, then fold in their reachability.
		// Keep only non-redundant edges: we compute on the reduced graph as
		// it is being built, which is valid because we reduce edges in
		// topological order from the last node backward.
		for v := range succ[u] {
			r[v/64] |= 1 << (v % 64)
			computeReach(v)
			for w := range r {
				r[w] |= reach[v][w]
			}
		}
		reach[u] = r
	}

	// Reduce: for each node u (backward), drop successors v reachable
	// through another successor.
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return nodes[order[a]].phase > nodes[order[b]].phase
	})
	plan := &Plan{ConflictPairs: conflictPairs}
	for _, u := range order {
		// Successors of u sorted by phase ascending; a successor v is
		// redundant if some other kept successor w (with earlier phase than
		// v) reaches v.
		vs := make([]int, 0, len(succ[u]))
		for v := range succ[u] {
			vs = append(vs, v)
		}
		sort.Slice(vs, func(a, b int) bool {
			return nodes[vs[a]].phase < nodes[vs[b]].phase
		})
		kept := make([]int, 0, len(vs))
		for _, v := range vs {
			redundant := false
			for _, w := range kept {
				computeReach(w)
				if reach[w][v/64]&(1<<(v%64)) != 0 {
					redundant = true
					break
				}
			}
			if !redundant {
				kept = append(kept, v)
			}
		}
		// Replace successor set with the kept edges only, so reachability
		// computed later (for earlier nodes) uses the reduced graph —
		// reachability is unchanged by removing transitive edges.
		succ[u] = make(map[int]bool, len(kept))
		for _, v := range kept {
			succ[u][v] = true
			plan.Syncs = append(plan.Syncs, Sync{After: nodes[u].msg, Before: nodes[v].msg})
		}
	}

	sort.Slice(plan.Syncs, func(a, b int) bool {
		x, y := plan.Syncs[a], plan.Syncs[b]
		if x.After != y.After {
			if x.After.Src != y.After.Src {
				return x.After.Src < y.After.Src
			}
			return x.After.Dst < y.After.Dst
		}
		if x.Before.Src != y.Before.Src {
			return x.Before.Src < y.Before.Src
		}
		return x.Before.Dst < y.Before.Dst
	})
	return plan, nil
}

// mergePhases returns a copy of s with merges random adjacent phase pairs
// folded together: a schedule that strict planning must reject wherever the
// merged messages share a link, and capacity-aware planning must accept.
func mergePhases(s *schedule.Schedule, merges int, rng *rand.Rand) *schedule.Schedule {
	phases := make([]schedule.Phase, len(s.Phases))
	for i, p := range s.Phases {
		phases[i] = append(schedule.Phase(nil), p...)
	}
	for ; merges > 0 && len(phases) > 1; merges-- {
		p := rng.Intn(len(phases) - 1)
		phases[p] = append(phases[p], phases[p+1]...)
		phases = append(phases[:p+1], phases[p+2:]...)
	}
	return &schedule.Schedule{NumRanks: s.NumRanks, Phases: phases}
}

// TestBuildMatchesOracle checks the chain-based builder against the
// all-pairs oracle on random clusters: the paper's schedules, greedy
// schedules and phase-merged variants of both, in strict and
// capacity-aware mode. Syncs, ConflictPairs and error text must all agree.
func TestBuildMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20050404))
	builders := []struct {
		name           string
		allowSamePhase bool
	}{{"Build", false}, {"BuildCapacityAware", true}}
	for trial := 0; trial < 300; trial++ {
		g := topology.RandomCluster(topology.RandomOptions{
			Switches: 1 + rng.Intn(8),
			Machines: 2 + rng.Intn(31),
			Rand:     rng,
		})
		paper, err := schedule.Build(g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		greedy := schedule.BuildGreedy(g)
		cases := []struct {
			kind   string
			s      *schedule.Schedule
			merged bool
		}{
			{"paper", paper, false},
			{"greedy", greedy, false},
			{"paper-merged", mergePhases(paper, 1+rng.Intn(4), rng), true},
			{"greedy-merged", mergePhases(greedy, 1+rng.Intn(4), rng), true},
		}
		for _, c := range cases {
			var (
				want    *Plan
				wantErr error
			)
			for _, b := range builders {
				got, gotErr := build(g, c.s, b.allowSamePhase)
				// Without merged phases no link carries a same-phase pair,
				// so the oracle answers both modes alike.
				if want == nil || c.merged {
					want, wantErr = oracleBuild(g, c.s, b.allowSamePhase)
				}
				where := fmt.Sprintf("trial %d, %s schedule, %s", trial, c.kind, b.name)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: error %v, oracle %v\n%s", where, gotErr, wantErr, g.Format())
				}
				if wantErr != nil {
					continue
				}
				if got.ConflictPairs != want.ConflictPairs {
					t.Fatalf("%s: ConflictPairs %d, oracle %d\n%s",
						where, got.ConflictPairs, want.ConflictPairs, g.Format())
				}
				if !slices.Equal(got.Syncs, want.Syncs) {
					t.Fatalf("%s: %d syncs differ from the oracle's %d\n%s",
						where, len(got.Syncs), len(want.Syncs), g.Format())
				}
			}
		}
	}
}
