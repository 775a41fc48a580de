package main

import (
	"fmt"
	"time"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/syncplan"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// compileStats times the steps of compiling the paper's routine.
type compileStats struct {
	build, verify, plan, program float64 // seconds
	phases, syncs                int
}

// compileOurs compiles the paper's routine with pair-wise synchronization.
// Untraced (lg == nil) it calls harness.CompileRoutine, exactly as aapcnode
// and aapcbench do. Traced, it makes the same calls CompileRoutine makes, one
// by one, so each step gets its own span and timing.
func compileOurs(g *topology.Graph, lg *spanLog, parent uint64) (*alltoall.Scheduled, compileStats, error) {
	var cs compileStats
	id, st := lg.start()
	defer lg.finish(id, parent, 0, "compile", -1, st)
	if lg == nil {
		sc, err := harness.CompileRoutine(g, alltoall.PairwiseSync)
		return sc, cs, err
	}
	step := func(name string, dst *float64, f func() error) error {
		sid, sst := lg.start()
		t0 := time.Now()
		err := f()
		*dst = time.Since(t0).Seconds()
		lg.finish(sid, id, 0, name, -1, sst)
		return err
	}
	var (
		s    *schedule.Schedule
		plan *syncplan.Plan
		sc   *alltoall.Scheduled
	)
	if err := step("schedule.build", &cs.build, func() (err error) {
		s, err = schedule.Build(g)
		return err
	}); err != nil {
		return nil, cs, fmt.Errorf("scheduling: %w", err)
	}
	if err := step("schedule.verify", &cs.verify, func() error {
		return schedule.Verify(g, s, true)
	}); err != nil {
		return nil, cs, fmt.Errorf("generated schedule failed verification: %w", err)
	}
	if err := step("syncplan.build", &cs.plan, func() (err error) {
		plan, err = syncplan.Build(g, s)
		return err
	}); err != nil {
		return nil, cs, fmt.Errorf("synchronization planning: %w", err)
	}
	if err := step("alltoall.compile", &cs.program, func() (err error) {
		sc, err = alltoall.NewScheduled(s, plan, alltoall.PairwiseSync)
		return err
	}); err != nil {
		return nil, cs, err
	}
	cs.phases = len(s.Phases)
	cs.syncs = plan.NumSyncs()
	return sc, cs, nil
}

// setCompileMetrics reports the medians of the traced compiles.
func setCompileMetrics(res *result, comps []compileStats) {
	var build, verify, plan, program []float64
	for _, c := range comps {
		build = append(build, c.build)
		verify = append(verify, c.verify)
		plan = append(plan, c.plan)
		program = append(program, c.program)
	}
	n := len(comps)
	res.set("schedule.build_s", median(build), "s", n)
	res.set("schedule.verify_s", median(verify), "s", n)
	res.set("syncplan.build_s", median(plan), "s", n)
	res.set("alltoall.compile_s", median(program), "s", n)
	if n > 0 {
		res.set("schedule.phases", float64(comps[0].phases), "count", n)
		res.set("syncplan.syncs", float64(comps[0].syncs), "count", n)
	}
}
