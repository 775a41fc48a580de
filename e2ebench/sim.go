package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/simnet"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

const (
	simWorkload = "sim_chain96"
	simRanks    = 96
	simMsize    = 64 << 10
	simJitter   = 0.25
	simWorkers  = 2
	// simSeeds is how many jitter patterns have reference cell times; the
	// workload seed selects one of them.
	simSeeds = 16
	// refTolerance is the relative error allowed against the reference.
	refTolerance = 1e-9
	// compilesPerRun is how many times a run compiles the paper's routine
	// for setup_s (about 3 s each at 96 ranks).
	compilesPerRun = 3
)

// simAlgs are the sweep's algorithms, in harness order.
var simAlgs = []string{"LAM", "MPICH", "Ours"}

//go:embed reference.json
var referenceJSON []byte

// reference holds the simulated completion time of every cell, in seconds,
// by jitter seed and algorithm.
type reference struct {
	Note  string                        `json:"note"`
	Cells map[string]map[string]float64 `json:"cells"`
}

// chainCluster builds simRanks machines spread 16 per switch over a chain of
// switches: the BenchmarkSimAAPC shape, which loads both the machine links
// and the shared trunks.
func chainCluster() *topology.Graph {
	g := topology.New()
	sw := make([]int, (simRanks+15)/16)
	for i := range sw {
		sw[i] = g.MustAddSwitch(fmt.Sprintf("s%d", i))
		if i > 0 {
			g.MustConnect(sw[i-1], sw[i])
		}
	}
	for i := 0; i < simRanks; i++ {
		m := g.MustAddMachine(fmt.Sprintf("n%d", i))
		g.MustConnect(sw[i/16], m)
	}
	return g.MustValidate()
}

func jitterSeed(seed int64) uint64 { return uint64((seed%simSeeds+simSeeds)%simSeeds) + 1 }

func simConfig(g *topology.Graph, js uint64) simnet.Config {
	return simnet.Config{Graph: g, JitterFrac: simJitter, JitterSeed: js}
}

// cellClock spans one cell's wall time: from the first rank entering the
// routine to the last one leaving it.
type cellClock struct{ first, last atomic.Int64 }

func (c *cellClock) enter(ns int64) {
	for {
		cur := c.first.Load()
		if (cur != 0 && cur <= ns) || c.first.CompareAndSwap(cur, ns) {
			return
		}
	}
}

func (c *cellClock) exit(ns int64) {
	for {
		cur := c.last.Load()
		if cur >= ns || c.last.CompareAndSwap(cur, ns) {
			return
		}
	}
}

func (c *cellClock) seconds() float64 { return float64(c.last.Load()-c.first.Load()) / 1e9 }

// clocked wraps an algorithm so each call of its routine updates clk.
func clocked(alg harness.Algorithm, clk *cellClock, origin time.Time) harness.Algorithm {
	return harness.Algorithm{Name: alg.Name, Make: func(g *topology.Graph) (alltoall.Func, error) {
		fn, err := alg.Make(g)
		if err != nil {
			return nil, err
		}
		return func(c mpi.Comm, b alltoall.Buffers, msize int) error {
			clk.enter(int64(time.Since(origin)) + 1)
			err := fn(c, b, msize)
			clk.exit(int64(time.Since(origin)) + 1)
			return err
		}, nil
	}}
}

// sweep is one pass over the three cells.
type sweep struct {
	sim    map[string]float64 // simulated completion time, s
	wall   map[string]float64 // cell wall time, s
	total  float64            // sweep wall time, s
	events int64
	flows  int
	use    usage
}

// harnessSweep runs the cells the way aapcbench does: harness.Experiment
// with simWorkers parallel cells, compiling the paper's routine inside.
func harnessSweep(g *topology.Graph, js uint64) (sweep, error) {
	origin := time.Now()
	clocks := make([]cellClock, len(simAlgs))
	algs := []harness.Algorithm{harness.LAM(), harness.MPICHAlg(), harness.Ours(alltoall.PairwiseSync)}
	for i := range algs {
		algs[i] = clocked(algs[i], &clocks[i], origin)
	}
	e := harness.Experiment{
		Name:       simWorkload,
		Graph:      g,
		Msizes:     []int{simMsize},
		Algorithms: algs,
		Net:        simnet.Config{JitterFrac: simJitter, JitterSeed: js},
		Parallel:   simWorkers,
	}
	u0 := readUsage()
	rep, err := e.Run()
	u1 := readUsage()
	s := sweep{sim: map[string]float64{}, wall: map[string]float64{},
		total: u1.wall.Sub(u0.wall).Seconds(), use: u1.sub(u0)}
	if err != nil {
		return s, err
	}
	for i, name := range simAlgs {
		row, ok := rep.Cell(name, simMsize)
		if !ok {
			return s, fmt.Errorf("sweep has no %s cell", name)
		}
		s.sim[name] = row.Seconds
		s.wall[name] = clocks[i].seconds()
	}
	return s, nil
}

// tracedSweep runs the same cells on simnet worlds directly, so each cell's
// span and engine counters (events, flows) can be read. It mirrors
// harness.Experiment.Run: compile the paper's routine, then simWorkers
// workers with one fresh world per cell.
func tracedSweep(g *topology.Graph, js uint64, tr *tracer, main *spanLog) (sweep, error) {
	s := sweep{sim: map[string]float64{}, wall: map[string]float64{}}
	id, st := main.start()
	defer main.finish(id, 0, 0, "sweep", -1, st)
	u0 := readUsage()
	sc, _, err := compileOurs(g, main, id)
	if err != nil {
		return s, err
	}
	fns := map[string]alltoall.Func{"LAM": alltoall.Simple, "MPICH": alltoall.MPICH, "Ours": sc.Fn()}
	g.PathBetweenRanks(0, 1) // fill the graph's lazy cache before concurrent worlds
	type cell struct {
		name      string
		sim, wall float64
		events    int64
		flows     int
		err       error
	}
	jobs := make(chan string, len(simAlgs))
	for _, name := range simAlgs {
		jobs <- name
	}
	close(jobs)
	out := make(chan cell, len(simAlgs))
	var wg sync.WaitGroup
	for i := 0; i < simWorkers; i++ {
		lg := tr.log()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range jobs {
				cid, cs := lg.start()
				c := cell{name: name}
				t0 := time.Now()
				w, err := simnet.NewWorld(simConfig(g, js))
				if err == nil {
					fn := fns[name]
					err = w.Run(func(cm mpi.Comm) error {
						return fn(cm, alltoall.NewShared(simMsize), simMsize)
					})
				}
				c.wall = time.Since(t0).Seconds()
				lg.finish(cid, id, 0, "cell", -1, cs)
				if err != nil {
					c.err = fmt.Errorf("%s cell: %w", name, err)
				} else {
					c.sim, c.events, c.flows = w.Elapsed(), w.Events(), w.FlowCount()
				}
				out <- c
			}
		}()
	}
	wg.Wait()
	close(out)
	u1 := readUsage()
	s.total, s.use = u1.wall.Sub(u0.wall).Seconds(), u1.sub(u0)
	for c := range out {
		if c.err != nil {
			return s, c.err
		}
		s.sim[c.name], s.wall[c.name] = c.sim, c.wall
		s.events += c.events
		s.flows += c.flows
	}
	return s, nil
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("parsing reference.json: %w", err)
	}
	return &ref, nil
}

// checkSweep compares a sweep's simulated times with the reference and with
// the run's first sweep, which they must repeat exactly.
func checkSweep(res *result, s sweep, want map[string]float64, first *sweep) {
	for _, name := range simAlgs {
		got := s.sim[name]
		if ref, ok := want[name]; !ok {
			res.problem("no reference time for the %s cell", name)
		} else if math.Abs(got-ref) > refTolerance*math.Abs(ref) {
			res.problem("%s cell took %.17g s simulated, reference %.17g s", name, got, ref)
		}
		if first != nil && got != first.sim[name] {
			res.problem("%s cell took %.17g s simulated, %.17g s in the run's first sweep", name, got, first.sim[name])
		}
	}
}

// runSim runs the simulator workload.
func runSim(cfg runConfig) (*result, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	js := jitterSeed(cfg.seed)
	want := ref.Cells[strconv.FormatUint(js, 10)]
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	main := tr.log()
	res := newResult()
	res.idle = []string{"tcp.", "shm.", "obsv.", "alltoall.rank_", "alltoall.skew_", "go.goroutines_parked"}
	g := chainCluster()

	var (
		setups []float64
		comps  []compileStats
	)
	for i := 0; i < compilesPerRun; i++ {
		t0 := time.Now()
		_, cs, err := compileOurs(g, main, 0)
		if err != nil {
			return nil, fmt.Errorf("compiling ours: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		comps = append(comps, cs)
	}

	var plain, traced []sweep
	var ms0, ms1 runtime.MemStats
	progress("set-ups done")
	start := time.Now()
	var last time.Duration
	// Start another sweep only if it should end inside the window; a traced
	// run needs one untraced and one traced sweep.
	for len(plain) == 0 || time.Since(start)+last <= cfg.seconds || cfg.traced && len(traced) == 0 {
		t := time.Now()
		// A traced run alternates untraced harness sweeps (the overhead
		// baseline) with traced ones.
		var s sweep
		tracedNext := cfg.traced && len(plain) > len(traced)
		res.attempted += len(simAlgs)
		if tracedNext {
			runtime.ReadMemStats(&ms0)
			s, err = tracedSweep(g, js, tr, main)
			runtime.ReadMemStats(&ms1)
		} else {
			s, err = harnessSweep(g, js)
		}
		if err != nil {
			res.failed += len(simAlgs)
			res.problem("%v", err)
			return res, nil
		}
		var first *sweep
		if len(plain) > 0 {
			first = &plain[0]
		}
		last = time.Since(t)
		progress("sweep done in %.2f s", last.Seconds())
		checkSweep(res, s, want, first)
		if tracedNext {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}

	if !cfg.traced {
		// The simulator's all-to-all time is the sweep's wall time per
		// cell: cells share the workers, so one cell's own wall time
		// depends on which cell it overlapped.
		var perCell []float64
		var use usage
		for _, s := range plain {
			perCell = append(perCell, s.total/float64(len(simAlgs)))
			use = use.add(s.use)
		}
		cells := len(plain) * len(simAlgs)
		res.set("alltoall_ms_p50", median(perCell)*1e3, "ms", len(perCell))
		res.set("cpu_ms_per_alltoall", use.cpu.Seconds()*1e3/float64(cells), "ms", cells)
		res.set("setup_s", median(setups), "s", len(setups))
		return res, nil
	}

	setCompileMetrics(res, comps)
	lt := traced[len(traced)-1]
	var cellWall float64
	for _, name := range simAlgs {
		var walls []float64
		for _, s := range traced {
			walls = append(walls, s.wall[name])
		}
		res.set("simnet.cell_s."+strings.ToLower(name), median(walls), "s", len(walls))
		cellWall += lt.wall[name]
	}
	var tt, pt []float64
	for _, s := range traced {
		tt = append(tt, s.total)
	}
	for _, s := range plain {
		pt = append(pt, s.total)
	}
	res.set("simnet.sweep_s", median(tt), "s", len(tt))
	res.set("simnet.events", float64(lt.events), "count", 1)
	res.set("simnet.flows", float64(lt.flows), "count", 1)
	res.set("simnet.events_per_s", float64(lt.events)/cellWall, "1/s", 1)
	// ms0/ms1 bracket the last traced sweep.
	setProcMetrics(res, lt.use, len(simAlgs), ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc,
		uint64(ms1.NumGC-ms0.NumGC))
	setTraceMetrics(res, tr, cfg, median(tt), median(pt), len(traced))
	return res, nil
}

// recordReference recomputes every jitter seed's cell times and writes them
// to path. Run it only when a change is meant to move simulated times.
func recordReference(path string) error {
	g := chainCluster()
	ref := reference{
		Note: "Simulated completion time (s) of each sim_chain96 cell by jitter seed; " +
			"written by e2ebench --record-reference.",
		Cells: map[string]map[string]float64{},
	}
	for js := uint64(1); js <= simSeeds; js++ {
		s, err := harnessSweep(g, js)
		if err != nil {
			return err
		}
		ref.Cells[strconv.FormatUint(js, 10)] = s.sim
		fmt.Fprintf(os.Stderr, "jitter seed %d: %v (%.1f s)\n", js, s.sim, s.total)
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
