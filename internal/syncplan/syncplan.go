// Package syncplan computes the pair-wise synchronizations that preserve a
// contention-free AAPC schedule at run time (Section 5 of Faraj & Yuan,
// IPPS 2005).
//
// Separating phases with barriers preserves the schedule but pays a full
// synchronization per phase. The paper instead synchronizes only where it
// matters: when message a->b in phase p and message c->d in a later phase q
// would contend on some directed link, node a sends a small synchronization
// message to node c after completing a->b, and c delays c->d until that
// message arrives. Synchronizations implied by others (transitively) are
// redundant and removed, minimizing the number of extra messages.
//
// The planner never enumerates conflicting pairs, which number in the
// millions at a hundred ranks. Messages on one directed link are totally
// ordered by phase, so linking each message only to the next one on each of
// its links (the per-link chains) has the same transitive closure, and
// hence the same transitive reduction, as the all-pairs conflict DAG. The
// reduction runs a depth-first search bounded by phase over the chains, and
// the pair count is recovered from per-link and per-turn sums. Time and
// memory are O(messages × path length) for building the chains, plus the
// bounded searches: about 13 ms for 96 ranks on a chain of six switches,
// 0.2 s for 256 and 1.5 s (250 MB allocated) for 512, on a 2-vCPU Xeon.
package syncplan

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// Sync orders two data messages of the schedule: After (in an earlier phase)
// must complete before Before (in a later phase) may start. At run time the
// source of After sends a small control message to the source of Before.
type Sync struct {
	// After is the message that must finish first.
	After schedule.Message
	// Before is the message that must wait.
	Before schedule.Message
}

// Plan is the synchronization plan for one schedule: the minimal set of
// pair-wise orderings that prevents any two link-sharing messages from
// different phases from overlapping.
type Plan struct {
	// Syncs lists the required synchronizations, sorted by (After, Before).
	Syncs []Sync
	// ConflictPairs is the number of cross-phase conflicting message pairs
	// before redundancy elimination (the dependence-graph edge count the
	// naive all-pairs construction would synchronize).
	ConflictPairs int
}

// NumSyncs returns the number of synchronization messages the plan inserts.
func (p *Plan) NumSyncs() int { return len(p.Syncs) }

// Build computes the synchronization plan for a schedule on a topology.
//
// Construction: on every directed link the messages crossing it are totally
// ordered by phase (contention freedom allows at most one per phase per
// link), and every ordered pair of them is a conflict. The conflict DAG is
// therefore the transitive closure of the per-link chains, in which each
// message points only at the next message on each of its links. A DAG's
// transitive reduction depends only on its closure, so reducing the chain
// graph yields exactly the reduction of the conflict DAG: a synchronization
// a->c is dropped when some other kept successor of a already reaches c.
// Phases give a topological order, so the DAG is acyclic and its reduction
// unique.
//
// The reduction walks messages from the last phase back. For each message
// it keeps successors in phase order unless a depth-first search from the
// successors kept before reaches them; the search follows only the kept
// edges of later messages, expands only messages of earlier phases than the
// successor in question, and marks visits in one generation-stamped array.
//
// ConflictPairs is counted without enumerating pairs: two tree paths share
// one contiguous run of k directed links, which contains k-1 turns
// (consecutive link pairs), so the distinct conflicting pairs are the
// cross-phase pairs summed over links minus those summed over turns.
//
// With M messages of path length at most L, the chain graph has at most
// M*L edges; building it and counting pairs take O(M*L) time and memory,
// and each search is bounded by the messages in its phase window.
func Build(g *topology.Graph, s *schedule.Schedule) (*Plan, error) {
	return build(g, s, false)
}

// BuildCapacityAware computes the synchronization plan for a
// capacity-respecting schedule on a heterogeneous cluster (see
// schedule.VerifyCapacity): messages of the same phase may legitimately
// share a fast link and need no mutual ordering, so only cross-phase
// conflicts are synchronized. Same-phase messages on a link form one group
// of its chain, linked to every message of the next group.
func BuildCapacityAware(g *topology.Graph, s *schedule.Schedule) (*Plan, error) {
	return build(g, s, true)
}

func build(g *topology.Graph, s *schedule.Schedule, allowSamePhase bool) (*Plan, error) {
	idx := g.NewEdgeIndex()
	nEdges := idx.Len()

	// Messages get dense IDs in phase order, so ID order is a topological
	// order of the conflict DAG; phase p holds IDs phaseStart[p] to
	// phaseStart[p+1]-1.
	var (
		msgs       []schedule.Message
		phase      []int32
		phaseStart = make([]int32, len(s.Phases)+1)
	)
	seen := make(map[schedule.Message]bool)
	for pi, p := range s.Phases {
		phaseStart[pi] = int32(len(msgs))
		for _, m := range p {
			if seen[m] {
				return nil, fmt.Errorf("syncplan: message %v scheduled twice", m)
			}
			seen[m] = true
			msgs = append(msgs, m)
			phase = append(phase, int32(pi))
		}
	}
	n := len(msgs)
	phaseStart[len(s.Phases)] = int32(n)

	// path[off[i]:off[i+1]] lists message i's directed links in path order.
	off := make([]int32, n+1)
	var path []int32
	for i, m := range msgs {
		path = g.AppendPathEdgeIDs(idx, g.MachineID(m.Src), g.MachineID(m.Dst), path)
		off[i+1] = int32(len(path))
	}

	// users[start[e]:start[e+1]] lists the messages crossing link e in
	// phase order; next holds, for each entry, the link that message takes
	// after e (-1 at its destination).
	start := make([]int32, nEdges+1)
	for _, e := range path {
		start[e+1]++
	}
	for e := 0; e < nEdges; e++ {
		start[e+1] += start[e]
	}
	users := make([]int32, len(path))
	next := make([]int32, len(path))
	fill := append([]int32(nil), start[:nEdges]...)
	for i := 0; i < n; i++ {
		p := path[off[i]:off[i+1]]
		for k, e := range p {
			nx := int32(-1)
			if k+1 < len(p) {
				nx = p[k+1]
			}
			users[fill[e]], next[fill[e]] = int32(i), nx
			fill[e]++
		}
	}

	// Count cross-phase pairs per link and per turn (e, f), rejecting
	// same-phase sharing in strict mode. A same-phase pair on a link is
	// always adjacent in its phase-ordered users. For each turn out of e,
	// cnt, last and same track the users seen so far, the phase of the
	// latest and how many earlier ones share that phase.
	cnt := make([]int32, nEdges)
	last := make([]int32, nEdges)
	same := make([]int32, nEdges)
	linkPairs, turnPairs := 0, 0
	for e := 0; e < nEdges; e++ {
		us, nx := users[start[e]:start[e+1]], next[start[e]:start[e+1]]
		run := 0
		for i, u := range us {
			if i > 0 && phase[u] == phase[us[i-1]] {
				if !allowSamePhase {
					return nil, fmt.Errorf(
						"syncplan: schedule not contention-free: %v and %v share a link in phase %d",
						msgs[us[i-1]], msgs[u], phase[u])
				}
				run++
			} else {
				run = 0
			}
			linkPairs += i - run
			if f := nx[i]; f >= 0 {
				if cnt[f] > 0 && last[f] == phase[u] {
					same[f]++
				} else {
					last[f], same[f] = phase[u], 0
				}
				turnPairs += int(cnt[f] - same[f])
				cnt[f]++
			}
		}
		for _, f := range nx {
			if f >= 0 {
				cnt[f] = 0
			}
		}
	}

	// Chain graph: every user of a link points at the link's next phase
	// group. succ[soff[u]:soff[u+1]] holds u's successors, duplicates
	// included (two messages may meet on several links).
	chains := func(visit func(u int32, group []int32)) {
		for e := 0; e < nEdges; e++ {
			us := users[start[e]:start[e+1]]
			lo, mid := 0, 0
			for lo < len(us) {
				for mid < len(us) && phase[us[mid]] == phase[us[lo]] {
					mid++
				}
				hi := mid
				for hi < len(us) && phase[us[hi]] == phase[us[mid]] {
					hi++
				}
				for _, u := range us[lo:mid] {
					visit(u, us[mid:hi])
				}
				lo = mid
			}
		}
	}
	soff := make([]int32, n+1)
	chains(func(u int32, group []int32) { soff[u+1] += int32(len(group)) })
	for i := 0; i < n; i++ {
		soff[i+1] += soff[i]
	}
	succ := make([]int32, soff[n])
	fill = append(fill[:0], soff[:n]...)
	chains(func(u int32, group []int32) { fill[u] += int32(copy(succ[fill[u]:], group)) })

	// Transitive reduction, from the last message back, so every search
	// runs over already-reduced successor lists. kept[u] is the length of
	// the reduced prefix of u's list. For u, stamp[x] == u+1 marks x as
	// reached from u's kept successors; reached nodes not yet expanded wait
	// on stack, or on parked once they lie at or past the phase being
	// decided. Deciding a successor v expands only nodes of earlier phases
	// and stops as soon as v is reached.
	kept := make([]int32, n)
	stamp := make([]int32, n)
	var stack, parked []int32
	plan := &Plan{ConflictPairs: linkPairs - turnPairs}
	for u := n - 1; u >= 0; u-- {
		out := succ[soff[u]:soff[u+1]]
		if len(out) == 0 {
			continue
		}
		slices.Sort(out) // ID order is phase order
		// Nothing at or past limit, the end of the last successor's
		// phase, can decide a successor.
		gen, limit := int32(u+1), phaseStart[phase[out[len(out)-1]]+1]
		stack, parked = stack[:0], parked[:0]
		k := 0
		for _, v := range out {
			bound := phaseStart[phase[v]]
			stack = append(stack, parked...)
			parked = parked[:0]
			for len(stack) > 0 && stamp[v] != gen {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if x >= bound {
					parked = append(parked, x)
					continue
				}
				for _, y := range succ[soff[x] : soff[x]+kept[x]] {
					if y >= limit {
						break
					}
					if stamp[y] != gen {
						stamp[y] = gen
						stack = append(stack, y)
					}
				}
			}
			if stamp[v] == gen {
				continue // implied by a kept successor, or a duplicate
			}
			out[k] = v
			k++
			plan.Syncs = append(plan.Syncs, Sync{After: msgs[u], Before: msgs[v]})
			stamp[v] = gen
			stack = append(stack, v)
		}
		kept[u] = int32(k)
	}

	slices.SortFunc(plan.Syncs, func(x, y Sync) int {
		if c := compareMessages(x.After, y.After); c != 0 {
			return c
		}
		return compareMessages(x.Before, y.Before)
	})
	return plan, nil
}

func compareMessages(a, b schedule.Message) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	return cmp.Compare(a.Dst, b.Dst)
}

// ByAfter groups the plan's synchronizations by their After message: the
// control messages a sender must emit when a given data message completes.
func (p *Plan) ByAfter() map[schedule.Message][]schedule.Message {
	out := make(map[schedule.Message][]schedule.Message)
	for _, s := range p.Syncs {
		out[s.After] = append(out[s.After], s.Before)
	}
	return out
}

// ByBefore groups the plan's synchronizations by their Before message: the
// control messages a sender must collect before starting a data message.
func (p *Plan) ByBefore() map[schedule.Message][]schedule.Message {
	out := make(map[schedule.Message][]schedule.Message)
	for _, s := range p.Syncs {
		out[s.Before] = append(out[s.Before], s.After)
	}
	return out
}
