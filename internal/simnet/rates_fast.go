package simnet

import (
	"math"
	"math/bits"
)

// The fast rate engine collapses flows sharing a path into aggregates for
// the progressive-filling loop. On a tree the path between two machines is
// unique, so the aggregate key is simply the (src, dst) pair: every
// concurrent message between the same endpoints — repeated iterations,
// windowed exchanges, sync traffic — is one solver variable instead of many.
// Aggregates and per-edge flow counts are maintained incrementally as flows
// activate and complete, and every directed edge keeps an incidence list of
// the aggregates crossing it, so a filling round freezes the aggregates of a
// bottleneck edge directly instead of re-scanning every unfrozen flow's
// path.
//
// A solve is a sequence of rounds, and a round a sequence of freeze steps:
// one per bottleneck edge, in the order the round checks edges. The solver
// keeps the previous solve's steps — each step's edge, and per directed edge
// the number of member flows it froze — and every aggregate keeps the step
// that froze it, which is the first step whose edge lies on its path. An
// event changes only a few aggregates, so the next solve replays the old
// steps at edge level: each round recomputes its share from the live edges
// and checks edges exactly as a full solve would, and while the bottleneck
// edges come up in the recorded order it applies each step's stored counts
// instead of walking the aggregates. Aggregates an event created, re-weighted
// or removed adjust the counts of their step when they change (a new
// aggregate takes the first old step on its path). At the first edge that
// differs, or a round that closes early, the replay stops and the rest of
// the solve freezes aggregate by aggregate, recording new steps. A flow's
// rate is the share of its aggregate's step, read by advance, so a solve
// never visits flows. All solver state lives in reusable buffers: at steady
// state (no new aggregates or steps) a solve performs zero allocations.
//
// Equivalence with the dense reference: flows with identical paths are
// symmetric in the max-min system, so they always freeze together at the
// same share, and a step subtracts the share from an edge's remaining
// capacity once per member flow — replaying exactly the reference solver's
// arithmetic — so the two engines agree bit-for-bit away from degenerate
// 1e-9 tie-breaks (see the property tests in rates_test.go). Replayed and
// from-scratch solves of this engine agree bit-for-bit without exception:
// a replayed step applies the same subtractions at the same points of the
// round as freezing its aggregates would.

// noStep marks an aggregate or edge no freeze step of the last solve covers.
const noStep = math.MaxInt32

// aggregate is one path-equivalence class of active flows.
type aggregate struct {
	// step is the freeze step that froze the aggregate in the last solve
	// (noStep before its first solve), and ents[i] the index of path[i]'s
	// entry in that step's counts. gen marks the solve that froze it after
	// the replay stopped.
	step int32
	ents []int32
	gen  uint64

	key     int     // src*n + dst
	path    []int32 // directed edge IDs (shared with engine.pathOf)
	weight  int32   // number of active member flows
	members *flow   // first member flow; the rest follow flow.aggNext
	// inc[i] is this aggregate's position in edgeAggs[path[i]], kept for
	// O(1) swap-removal when the last member completes.
	inc     []int32
	listIdx int // position in engine.aggs
}

// aggEntry is one incidence-list entry: the aggregate and the index of this
// edge within the aggregate's path (so removal can fix inc).
type aggEntry struct {
	agg *aggregate
	pi  int32
}

// edgeState is one edge's solver state: the capacity left to its unfrozen
// flows and their number.
type edgeState struct {
	remCap   float64
	remCount int32
}

// freezeStep is one bottleneck edge's freeze: every aggregate still unfrozen
// on the edge takes the round's share. ents holds, per directed edge, the
// member flows the step froze across it.
type freezeStep struct {
	edge  int32   // bottleneck edge; -1 for the numerical safety valve
	share float64 // the round's fair share: the rate of the step's flows
	ents  []stepEnt
}

type stepEnt struct{ eid, cnt int32 }

// fastSolver is the aggregated solver's state, kept across solves.
type fastSolver struct {
	edges []edgeState
	// ratio[eid] is edge eid's fair share remCap/remCount, +Inf once no
	// unfrozen flow crosses it, refreshed whenever a step takes flows off
	// the edge. It is kept apart from edges so a round's bottleneck scan
	// reads one dense array.
	ratio []float64
	cands []int32
	// pending is the set of edges the current round still has to check,
	// and pos the check cursor: edges a freeze touches ahead of the cursor
	// are checked in the same pass, the rest in the next one.
	pending []uint64
	pos     int
	// steps are the last solve's freeze steps in processing order; round k
	// covered steps[roundStart[k]:roundStart[k+1]], the last round ending at
	// len(steps). Entries past len(steps) keep their ents buffers for reuse.
	steps      []freezeStep
	roundStart []int32
	// edgeStep[eid] is the step whose bottleneck edge eid is, or noStep.
	edgeStep []int32
	// While a step is built, entIdx[eid] is eid's entry in it iff
	// entStamp[eid] == stamp.
	entStamp []uint64
	entIdx   []int32
	stamp    uint64
	gen      uint64 // numbers solves, for aggregate.gen
	// fromScratch, set by tests, drops the previous solve's steps before
	// each solve, so every round freezes aggregate by aggregate.
	fromScratch bool
	// replayedRounds and totalRounds count rounds over all solves.
	replayedRounds, totalRounds int64
}

func (s *fastSolver) init(nEdges int) {
	s.edges = make([]edgeState, nEdges)
	s.ratio = make([]float64, nEdges)
	s.pending = make([]uint64, (nEdges+63)/64)
	s.edgeStep = make([]int32, nEdges)
	for i := range s.edgeStep {
		s.edgeStep[i] = noStep
	}
	s.entStamp = make([]uint64, nEdges)
	s.entIdx = make([]int32, nEdges)
}

// attachFlow adds an activated flow to its path aggregate, creating and
// registering the aggregate on first use, and bumps the persistent per-edge
// flow counts. Caller holds e.mu.
func (e *engine) attachFlow(f *flow) {
	if len(f.path) == 0 {
		return // self-message: crosses no link, never aggregated
	}
	for _, eid := range f.path {
		e.linkCount[eid]++
	}
	key := f.src*e.n + f.dst
	a := e.aggByKey[key]
	if a == nil {
		a = e.newAggregate(key, f.path)
	}
	a.weight++
	e.fs.recount(a, 1)
	f.agg = a
	f.aggPrev, f.aggNext = nil, a.members
	if a.members != nil {
		a.members.aggPrev = f
	}
	a.members = f
}

// newAggregate registers an empty aggregate for key. It joins the first old
// freeze step on its path, which is where a replay would freeze it.
func (e *engine) newAggregate(key int, path []int32) *aggregate {
	var a *aggregate
	if n := len(e.aggPool); n > 0 {
		a = e.aggPool[n-1]
		e.aggPool = e.aggPool[:n-1]
	} else {
		a = &aggregate{}
	}
	a.key = key
	a.path = path
	a.weight = 0
	a.members = nil
	a.gen = 0
	if cap(a.inc) < len(path) {
		a.inc = make([]int32, len(path))
		a.ents = make([]int32, len(path))
	}
	a.inc = a.inc[:len(path)]
	a.ents = a.ents[:len(path)]
	for pi, eid := range path {
		a.inc[pi] = int32(len(e.edgeAggs[eid]))
		e.edgeAggs[eid] = append(e.edgeAggs[eid], aggEntry{agg: a, pi: int32(pi)})
	}
	s := &e.fs
	a.step = noStep
	for _, eid := range path {
		if t := s.edgeStep[eid]; t < a.step {
			a.step = t
		}
	}
	if a.step != noStep {
		st := &s.steps[a.step]
		for pi, eid := range path {
			a.ents[pi] = st.entry(eid)
		}
	}
	a.listIdx = len(e.aggs)
	e.aggs = append(e.aggs, a)
	e.aggByKey[key] = a
	return a
}

// entry returns the index of eid's count in the step, adding a zero count
// if the step has none.
func (st *freezeStep) entry(eid int32) int32 {
	for i, en := range st.ents {
		if en.eid == eid {
			return int32(i)
		}
	}
	st.ents = append(st.ents, stepEnt{eid: eid})
	return int32(len(st.ents) - 1)
}

// recount adds d member flows of a to the counts of its freeze step, when
// the last solve froze it.
func (s *fastSolver) recount(a *aggregate, d int32) {
	if a.step >= int32(len(s.steps)) {
		return
	}
	ents := s.steps[a.step].ents
	for _, i := range a.ents {
		ents[i].cnt += d
	}
}

// detachFlow removes a completed flow from its aggregate and the per-edge
// flow counts, unregistering the aggregate when the last member leaves.
// Caller holds e.mu.
func (e *engine) detachFlow(f *flow) {
	a := f.agg
	if a == nil {
		return
	}
	f.agg = nil
	if f.aggPrev != nil {
		f.aggPrev.aggNext = f.aggNext
	} else {
		a.members = f.aggNext
	}
	if f.aggNext != nil {
		f.aggNext.aggPrev = f.aggPrev
	}
	f.aggPrev, f.aggNext = nil, nil
	for _, eid := range a.path {
		e.linkCount[eid]--
	}
	a.weight--
	e.fs.recount(a, -1)
	if a.weight > 0 {
		return
	}
	for pi, eid := range a.path {
		list := e.edgeAggs[eid]
		slot := a.inc[pi]
		last := len(list) - 1
		moved := list[last]
		list[slot] = moved
		moved.agg.inc[moved.pi] = slot
		list[last] = aggEntry{}
		e.edgeAggs[eid] = list[:last]
	}
	last := len(e.aggs) - 1
	movedA := e.aggs[last]
	e.aggs[a.listIdx] = movedA
	movedA.listIdx = a.listIdx
	e.aggs[last] = nil
	e.aggs = e.aggs[:last]
	delete(e.aggByKey, a.key)
	a.path = nil
	e.aggPool = append(e.aggPool, a)
}

// assignRatesFast computes max-min fair rates by progressive filling over
// path aggregates: each round finds the bottleneck share from the live
// edges' cached ratios, then checks the edges at or under it in edge order,
// and each bottleneck edge either replays its recorded freeze step or, once
// the replay has stopped, freezes its aggregates through the incidence
// list. Each aggregate is frozen at most once and each edge is a bottleneck
// at most once, so a call costs O(rounds × live edges + replayed counts +
// Σ path lengths of the aggregates frozen after the replay stopped).
// Caller holds e.mu.
//
//aapc:noalloc
func (e *engine) assignRatesFast() {
	for i := range e.linkRate {
		e.linkRate[i] = 0
	}
	if len(e.aggs) == 0 {
		return
	}
	s := &e.fs
	if s.fromScratch {
		s.truncate(0, -1)
	}
	s.gen++
	es := s.edges
	for eid := range es {
		c := e.linkCount[eid]
		x := &es[eid]
		x.remCap = e.edgeCap[eid] * e.efficiency(c)
		x.remCount = int32(c)
		s.ratio[eid] = math.Inf(1)
		if c > 0 {
			s.ratio[eid] = x.remCap / float64(c)
		}
	}
	replaying := true
	// Aggregates whose step lies below from were frozen by the replay;
	// from is set when the first aggregate is frozen one by one.
	from := int32(-1)
	step := int32(0)
	k := 0
	for ; ; k++ {
		share, thr := s.scan()
		if math.IsInf(share, 1) {
			break // no unfrozen aggregates left
		}
		end := int32(-1)
		if replaying {
			if k < len(s.roundStart) {
				end = int32(len(s.steps))
				if k+1 < len(s.roundStart) {
					end = s.roundStart[k+1]
				}
			} else {
				replaying = false
			}
		}
		if k < len(s.roundStart) {
			s.roundStart[k] = step
		} else {
			s.roundStart = append(s.roundStart, step)
		}
		progressed := false
		for eid := s.next(); eid >= 0; eid = s.next() {
			if s.ratio[eid] > thr {
				continue // not a bottleneck, or no unfrozen flows left
			}
			progressed = true
			if replaying && step < end && s.steps[step].edge == eid {
				s.steps[step].share = share
				s.apply(step, e.linkRate)
			} else {
				if replaying {
					s.truncate(step, k)
					replaying = false
				}
				if from < 0 {
					from = step
				}
				e.freezeEdge(eid, share, from)
			}
			if es[eid].remCount != 0 {
				panic("simnet: freeze step left its bottleneck edge with unfrozen flows")
			}
			step++
		}
		if replaying && step != end {
			// The round closed before its recorded steps ran out.
			s.truncate(step, k)
			replaying = false
		}
		if !progressed {
			// Numerical safety valve: freeze everything at the share. A
			// recorded round has steps, so the replay has stopped already.
			if from < 0 {
				from = step
			}
			e.freezeRest(share, from)
			step++
		}
		s.totalRounds++
		if replaying {
			s.replayedRounds++
		}
	}
	if replaying {
		s.truncate(step, k)
	}
	s.roundStart = s.roundStart[:k]
}

// scan returns the round's bottleneck share and check threshold, marking
// every edge at or under the threshold pending. An edge no step touches
// keeps its ratio, so the round only ever needs to check these and the
// edges its steps touch.
//
//aapc:noalloc
func (s *fastSolver) scan() (share, thr float64) {
	// thr starts below +Inf so edges without unfrozen flows never qualify.
	share, thr = math.Inf(1), math.MaxFloat64
	s.cands = s.cands[:0]
	for eid, r := range s.ratio {
		if r <= thr {
			if r < share {
				share = r
				thr = share * (1 + 1e-9)
			}
			s.cands = append(s.cands, int32(eid))
		}
	}
	for _, eid := range s.cands {
		if s.ratio[eid] <= thr {
			s.pending[eid>>6] |= 1 << (uint32(eid) & 63)
		}
	}
	s.pos = 0
	return share, thr
}

// next pops the next pending edge in pass order: ascending edge ID from the
// cursor, then another pass from edge 0 while edges remain pending. It
// returns -1 when the round is closed. This checks each edge at the same
// point, and in the same state, as a full scan of every edge per pass.
func (s *fastSolver) next() int32 {
	for {
		for w := s.pos >> 6; w < len(s.pending); w++ {
			m := s.pending[w]
			if w == s.pos>>6 {
				m &= ^uint64(0) << (uint(s.pos) & 63)
			}
			if m != 0 {
				b := w<<6 + bits.TrailingZeros64(m)
				s.pending[w] &^= 1 << (uint(b) & 63)
				s.pos = b + 1
				return int32(b)
			}
		}
		s.pos = 0
		more := false
		for _, m := range s.pending {
			more = more || m != 0
		}
		if !more {
			return -1
		}
	}
}

// take removes n member flows frozen at share from edge eid, with one
// subtraction per flow, replaying the reference solver's arithmetic
// bit-for-bit (k equal subtractions do not fuse into one multiply). An edge
// left without unfrozen flows is never read again, so its capacity is left
// as it is.
func (s *fastSolver) take(eid, n int32, share float64) {
	x := &s.edges[eid]
	x.remCount -= n
	if x.remCount <= 0 {
		s.ratio[eid] = math.Inf(1)
		return
	}
	c := x.remCap
	for ; n > 0; n-- {
		c -= share
	}
	x.remCap = c
	s.ratio[eid] = c / float64(x.remCount)
	s.pending[eid>>6] |= 1 << (uint32(eid) & 63)
}

// apply takes step i's member flows off every edge they cross at the
// step's share and adds them to the link rates. A replayed step and one
// just built from its aggregates go through the same arithmetic.
//
//aapc:noalloc
func (s *fastSolver) apply(i int32, linkRate []float64) {
	st := &s.steps[i]
	for _, en := range st.ents {
		if en.cnt != 0 {
			s.take(en.eid, en.cnt, st.share)
			linkRate[en.eid] += st.share * float64(en.cnt)
		}
	}
}

// truncate drops the recorded steps from i on, and the rounds after round
// k, when the solve stops replaying. The aggregates they froze are frozen
// again one by one.
func (s *fastSolver) truncate(i int32, k int) {
	for j := i; j < int32(len(s.steps)); j++ {
		if b := s.steps[j].edge; b >= 0 {
			s.edgeStep[b] = noStep
		}
	}
	s.steps = s.steps[:i]
	if k+1 < len(s.roundStart) {
		s.roundStart = s.roundStart[:k+1]
	}
}

// newStep appends a freeze step for bottleneck edge b (-1 for the safety
// valve) at the given share and returns its index.
func (s *fastSolver) newStep(b int32, share float64) int32 {
	i := len(s.steps)
	if i < cap(s.steps) {
		s.steps = s.steps[:i+1]
	} else {
		s.steps = append(s.steps, freezeStep{}) //aapc:allow noalloc amortized: grows to the most steps a solve has taken
	}
	st := &s.steps[i]
	st.edge, st.share = b, share
	st.ents = st.ents[:0]
	if b >= 0 {
		s.edgeStep[b] = int32(i)
	}
	s.stamp++
	return int32(i)
}

// freezeEdge records a new step for bottleneck edge b and freezes every
// aggregate on b that neither the replay (steps below from) nor this solve
// has frozen yet.
//
//aapc:noalloc
func (e *engine) freezeEdge(b int32, share float64, from int32) {
	s := &e.fs
	i := s.newStep(b, share)
	// remCount is the weight of b's unfrozen aggregates: once they are all
	// found, the rest of the list is frozen already.
	for rem, list := s.edges[b].remCount, e.edgeAggs[b]; rem > 0; list = list[1:] {
		if a := list[0].agg; a.gen != s.gen && a.step >= from {
			e.freeze(a, i)
			rem -= a.weight
		}
	}
	s.apply(i, e.linkRate)
}

// freezeRest records a safety-valve step that freezes every aggregate still
// unfrozen at the share.
func (e *engine) freezeRest(share float64, from int32) {
	s := &e.fs
	i := s.newStep(-1, share)
	for _, a := range e.aggs {
		if a.gen != s.gen && a.step >= from {
			e.freeze(a, i)
		}
	}
	s.apply(i, e.linkRate)
}

// freeze assigns aggregate a and its member flows to step i, counting the
// members on every edge of its path.
//
//aapc:noalloc
func (e *engine) freeze(a *aggregate, i int32) {
	s := &e.fs
	a.gen, a.step = s.gen, i
	for f := a.members; f != nil; f = f.aggNext {
		e.actStep[f.actIdx] = i
	}
	st := &s.steps[i]
	w := a.weight
	for pi, eid := range a.path {
		idx := s.entIdx[eid]
		if s.entStamp[eid] != s.stamp {
			idx = int32(len(st.ents))
			st.ents = append(st.ents, stepEnt{eid: eid})
			s.entStamp[eid], s.entIdx[eid] = s.stamp, idx
		}
		st.ents[idx].cnt += w
		a.ents[pi] = idx
	}
}
