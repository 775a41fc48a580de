package simnet

import "math"

// denseScratch holds the reference solver's per-call working state, reused
// across calls so steady-state rate assignment performs no allocations.
type denseScratch struct {
	count    []int
	remCap   []float64
	remCount []int
	active   []*flow
	frozen   []bool
}

// assignRatesDense is the original dense max-min solver, kept verbatim as
// the reference oracle for the aggregated engine: progressive filling over
// individual flows, scanning every unfrozen flow's path each round. Its only
// changes from the seed implementation are the reusable scratch buffers, the
// memoized efficiency table, maintenance of the aggregate per-link rates
// the event loop integrates for byte accounting, and rates written to the
// engine's actRate slice instead of the flows. Caller holds e.mu.
func (e *engine) assignRatesDense() {
	nEdges := len(e.edgeCap)
	ds := &e.ds
	if cap(ds.count) < nEdges {
		ds.count = make([]int, nEdges)
		ds.remCap = make([]float64, nEdges)
		ds.remCount = make([]int, nEdges)
	}
	count := ds.count[:nEdges]
	for i := range count {
		count[i] = 0
	}
	for i := range e.linkRate {
		e.linkRate[i] = 0
	}
	active := ds.active[:0]
	rate := e.actRate
	for i, f := range e.act {
		rate[i] = 0
		if len(f.path) == 0 {
			// Self-message: crosses no link, completes (near-)instantly
			// once active.
			rate[i] = selfRate(e.actRemain[i])
			continue
		}
		active = append(active, f)
		for _, eid := range f.path {
			count[eid]++
		}
	}
	ds.active = active
	if len(active) == 0 {
		return
	}
	remCap := ds.remCap[:nEdges]
	remCount := ds.remCount[:nEdges]
	for eid := 0; eid < nEdges; eid++ {
		remCap[eid] = e.edgeCap[eid] * e.efficiency(count[eid])
		remCount[eid] = count[eid]
	}
	unassigned := len(active)
	if cap(ds.frozen) < len(active) {
		ds.frozen = make([]bool, len(active))
	}
	frozen := ds.frozen[:len(active)]
	for i := range frozen {
		frozen[i] = false
	}
	for unassigned > 0 {
		// Bottleneck fair share.
		share := math.Inf(1)
		for eid := 0; eid < nEdges; eid++ {
			if remCount[eid] > 0 {
				if s := remCap[eid] / float64(remCount[eid]); s < share {
					share = s
				}
			}
		}
		if math.IsInf(share, 1) {
			break // no constrained flows left (cannot happen on a tree)
		}
		// Freeze flows crossing any bottleneck edge at the fair share.
		progressed := false
		for i, f := range active {
			if frozen[i] {
				continue
			}
			bottlenecked := false
			for _, eid := range f.path {
				if remCount[eid] > 0 && remCap[eid]/float64(remCount[eid]) <= share*(1+1e-9) {
					bottlenecked = true
					break
				}
			}
			if !bottlenecked {
				continue
			}
			frozen[i] = true
			rate[f.actIdx] = share
			unassigned--
			progressed = true
			for _, eid := range f.path {
				remCap[eid] -= share
				remCount[eid]--
			}
		}
		if !progressed {
			// Numerical safety valve: freeze everything at the share.
			for i, f := range active {
				if !frozen[i] {
					frozen[i] = true
					rate[f.actIdx] = share
					unassigned--
				}
			}
		}
	}
	for _, f := range active {
		for _, eid := range f.path {
			e.linkRate[eid] += rate[f.actIdx]
		}
	}
}
