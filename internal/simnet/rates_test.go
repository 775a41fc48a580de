package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/aapc-sched/aapcsched/internal/topology"
)

// ratesTestEngine builds a bare engine (no running ranks) for solver-only
// tests.
func ratesTestEngine(t testing.TB, g *topology.Graph, rateEngine string) *engine {
	t.Helper()
	base := Config{Graph: g, RateEngine: rateEngine}
	cfg, err := base.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return newEngine(cfg)
}

// injectFlow activates a synthetic flow directly in the engine, bypassing
// the message-matching machinery, exactly as advance does on an activation
// event.
func injectFlow(e *engine, src, dst int, size float64) {
	f := &flow{id: e.flowSeq, src: src, dst: dst, path: e.path(src, dst), size: size}
	e.flowSeq++
	e.activate(f)
}

// popFlow deactivates the most recently injected flow, as a completion does.
func popFlow(e *engine) {
	completeFlow(e, len(e.act)-1)
}

// completeFlow deactivates the i-th active flow, as a completion does.
func completeFlow(e *engine, i int) {
	e.removeActive(e.act[i])
}

// rateOf returns a flow's rate after a solve, as advance reads it.
func rateOf(e *engine, f *flow) float64 {
	if st := e.actStep[f.actIdx]; !e.dense && st != noStep {
		return e.fs.steps[st].share
	}
	return e.actRate[f.actIdx]
}

// within1e9 is the equivalence bound: 1e-9 relative error (absolute below
// one byte/second).
func within1e9(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// randomFlowSet draws a random multiset of (src, dst) demands on n ranks;
// duplicates are frequent by construction, exercising aggregation weights.
func randomFlowSet(rng *rand.Rand, n int) [][2]int {
	nf := 1 + rng.Intn(4*n)
	set := make([][2]int, 0, nf)
	for i := 0; i < nf; i++ {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		if rng.Intn(3) == 0 && len(set) > 0 {
			// Reuse an existing pair to force aggregate weights > 1.
			set = append(set, set[rng.Intn(len(set))])
			continue
		}
		set = append(set, [2]int{src, dst})
	}
	return set
}

// TestRateEnginesAgreeQuick is the equivalence property test: on random
// trees with random flow multisets, the aggregated solver must reproduce
// the dense reference solver's max-min rates within 1e-9 relative error
// (they agree bit-for-bit in practice; the epsilon only covers degenerate
// share tie-breaks). Each quick iteration also removes a random suffix of
// flows and re-solves, exercising the incremental detach path.
func TestRateEnginesAgreeQuick(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topology.RandomCluster(topology.RandomOptions{
			Switches: 1 + rng.Intn(6),
			Machines: 2 + rng.Intn(24),
			Rand:     rng,
		})
		n := g.NumMachines()
		fast := ratesTestEngine(t, g, RateEngineFast)
		dense := ratesTestEngine(t, g, RateEngineReference)
		for round := 0; round < 3; round++ {
			for _, p := range randomFlowSet(rng, n) {
				size := float64(1+rng.Intn(1<<20)) * (1 + rng.Float64())
				injectFlow(fast, p[0], p[1], size)
				injectFlow(dense, p[0], p[1], size)
			}
			fast.assignRates()
			dense.assignRates()
			if len(fast.act) != len(dense.act) {
				t.Fatalf("seed %d: flow count mismatch", seed)
			}
			for i, ff := range fast.act {
				df := dense.act[i]
				if fr, dr := rateOf(fast, ff), rateOf(dense, df); !within1e9(fr, dr) {
					t.Logf("seed %d round %d: flow %d (%d->%d) fast rate %g, dense rate %g",
						seed, round, i, ff.src, ff.dst, fr, dr)
					return false
				}
			}
			for eid := range fast.linkRate {
				fr, dr := fast.linkRate[eid], dense.linkRate[eid]
				if !within1e9(fr, dr) {
					t.Logf("seed %d round %d: edge %d fast link rate %g, dense %g",
						seed, round, eid, fr, dr)
					return false
				}
			}
			// Complete a random suffix before the next wave of demands.
			drop := rng.Intn(len(fast.act) + 1)
			for i := 0; i < drop; i++ {
				popFlow(fast)
				popFlow(dense)
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRateEngineEndToEndIdentical runs full jittered AAPC programs under
// both solvers and requires byte-identical results: same Elapsed, same
// FlowTrace (ids, times, rates). This is the regression gate that keeps the
// fast engine a drop-in replacement rather than an approximation.
//
// The weighted case spans three switches and sends every message twice, so
// its aggregates have weight 2, and it exercises both replayed rounds and
// rounds frozen after a replay stopped. Its byte-identical gate is the fast
// engine against itself solving every event from scratch: at 1e-9 share
// near-ties the reference solver can freeze two flows of one pair in
// different rounds, so on weighted flow sets it agrees with the fast engine
// only within 1e-9 (TestReplayMatchesScratchQuick).
func TestRateEngineEndToEndIdentical(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		copies int
		jitter float64
	}{
		{name: "jitter=0", n: 24, copies: 1, jitter: 0},
		{name: "jitter=0.3", n: 24, copies: 1, jitter: 0.3},
		{name: "48ranks/weighted/jitter=0.3", n: 48, copies: 2, jitter: 0.3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := benchConfig(benchCluster(tc.n), tc.jitter)
			run := func(engine string, fromScratch bool) (*World, []FlowRecord) {
				c := cfg
				c.RateEngine = engine
				w, err := NewWorld(c)
				if err != nil {
					t.Fatal(err)
				}
				w.eng.fs.fromScratch = fromScratch
				if err := w.Run(postAllAAPC(tc.n, 4<<10, tc.copies)); err != nil {
					t.Fatal(err)
				}
				return w, w.FlowTrace()
			}
			fast, fastTr := run(RateEngineFast, false)
			var want *World
			var wantTr []FlowRecord
			if tc.copies > 1 {
				replayed, total := fast.SolverRounds()
				if replayed == 0 || replayed == total {
					t.Errorf("fast solver replayed %d of %d rounds, want some but not all", replayed, total)
				}
				want, wantTr = run(RateEngineFast, true)
			} else {
				want, wantTr = run(RateEngineReference, false)
			}
			if fast.Elapsed() != want.Elapsed() {
				t.Errorf("Elapsed: fast %v, want %v", fast.Elapsed(), want.Elapsed())
			}
			if len(fastTr) != len(wantTr) {
				t.Fatalf("trace length: fast %d, want %d", len(fastTr), len(wantTr))
			}
			for i := range fastTr {
				if fastTr[i] != wantTr[i] {
					t.Fatalf("flow record %d differs:\nfast: %+v\nwant: %+v",
						i, fastTr[i], wantTr[i])
				}
			}
		})
	}
}

// speedCluster builds a random tree whose links run at mixed speeds, so
// fair shares differ between machine links and trunks.
func speedCluster(rng *rand.Rand) *topology.Graph {
	speeds := []float64{0.5, 1, 2, 10}
	g := topology.New()
	sw := make([]int, 1+rng.Intn(6))
	for i := range sw {
		sw[i] = g.MustAddSwitch(fmt.Sprintf("s%d", i))
		if i > 0 {
			g.MustConnectSpeed(sw[rng.Intn(i)], sw[i], speeds[rng.Intn(len(speeds))])
		}
	}
	for i, n := 0, 2+rng.Intn(24); i < n; i++ {
		m := g.MustAddMachine(fmt.Sprintf("n%02d", i))
		g.MustConnectSpeed(sw[rng.Intn(len(sw))], m, speeds[rng.Intn(len(speeds))])
	}
	return g.MustValidate()
}

// TestReplayMatchesScratchQuick is the replay property: over random churn
// — each event activates and completes several flows at once, repeated
// pairs giving aggregates of weight above 1, on trees with mixed link
// speeds — a fast engine that replays its previous solve must give
// bit-identical flow and link rates to one that solves every event from
// scratch, and both must match the dense oracle within 1e-9.
func TestReplayMatchesScratchQuick(t *testing.T) {
	var replayed, rounds int64
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := speedCluster(rng)
		n := g.NumMachines()
		inc := ratesTestEngine(t, g, RateEngineFast)
		scratch := ratesTestEngine(t, g, RateEngineFast)
		scratch.fs.fromScratch = true
		dense := ratesTestEngine(t, g, RateEngineReference)
		engines := []*engine{inc, scratch, dense}
		for ev := 0; ev < 40; ev++ {
			arrive := 1 + rng.Intn(4)
			if ev == 0 {
				arrive = 3 * n
			}
			for i := 0; i < arrive; i++ {
				src, dst := rng.Intn(n), rng.Intn(n)
				if len(inc.act) > 0 && rng.Intn(3) == 0 {
					// Another message between an active pair.
					f := inc.act[rng.Intn(len(inc.act))]
					src, dst = f.src, f.dst
				}
				size := float64(1 + rng.Intn(1<<20))
				for _, e := range engines {
					injectFlow(e, src, dst, size)
				}
			}
			for i, leave := 0, rng.Intn(5); i < leave && len(inc.act) > 0; i++ {
				k := rng.Intn(len(inc.act))
				for _, e := range engines {
					completeFlow(e, k)
				}
			}
			for _, e := range engines {
				e.assignRates()
			}
			for i, f := range inc.act {
				r, sr, dr := rateOf(inc, f), rateOf(scratch, scratch.act[i]), rateOf(dense, dense.act[i])
				if r != sr || !within1e9(r, dr) {
					t.Logf("seed %d event %d: flow %d (%d->%d) replayed rate %v, scratch %v, dense %v",
						seed, ev, i, f.src, f.dst, r, sr, dr)
					return false
				}
			}
			for eid, r := range inc.linkRate {
				if r != scratch.linkRate[eid] || !within1e9(r, dense.linkRate[eid]) {
					t.Logf("seed %d event %d: edge %d replayed link rate %v, scratch %v, dense %v",
						seed, ev, eid, r, scratch.linkRate[eid], dense.linkRate[eid])
					return false
				}
			}
		}
		if scratch.fs.replayedRounds != 0 {
			t.Logf("seed %d: the from-scratch engine replayed %d rounds", seed, scratch.fs.replayedRounds)
			return false
		}
		replayed += inc.fs.replayedRounds
		rounds += inc.fs.totalRounds
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
	if replayed == 0 || replayed == rounds {
		t.Fatalf("replayed %d of %d rounds: the property needs both replayed and re-frozen rounds", replayed, rounds)
	}
	t.Logf("replayed %d of %d rounds", replayed, rounds)
}

// TestAssignRatesNoSteadyStateAllocs pins the zero-allocation claim for both
// solvers: once scratch buffers are warm and the aggregate pool is
// populated, re-solving (including flow churn through attach/detach on the
// fast path) must not allocate. On the fast path the churn covers a new
// aggregate, a second member joining an existing one, replayed rounds and
// rounds frozen after the replay stopped.
func TestAssignRatesNoSteadyStateAllocs(t *testing.T) {
	g := benchCluster(32)
	for _, engine := range []string{RateEngineFast, RateEngineReference} {
		t.Run(engine, func(t *testing.T) {
			e := ratesTestEngine(t, g, engine)
			rng := rand.New(rand.NewSource(7))
			for _, p := range randomFlowSet(rng, 32) {
				injectFlow(e, p[0], p[1], 1<<16)
			}
			e.assignRates() // warm scratch
			popFlow(e)      // and the aggregate pool
			e.assignRates()
			// Reusable flow objects: a new pair, and another message of an
			// active pair. The simulator reuses nothing else per event.
			pair := e.act[0]
			fs := []*flow{
				{id: e.flowSeq, src: 20, dst: 21, path: e.path(20, 21)},
				{id: e.flowSeq + 1, src: pair.src, dst: pair.dst, path: pair.path},
			}
			// One churn cycle: activate, solve, complete, solve, per flow.
			churn := func() {
				for _, f := range fs {
					f.size = 1 << 16
					e.activate(f)
					e.assignRates()
					completeFlow(e, f.actIdx)
					e.assignRates()
				}
			}
			churn() // populate the (20,21) aggregate pool slot
			replayed, total := e.fs.replayedRounds, e.fs.totalRounds
			allocs := testing.AllocsPerRun(20, churn)
			if allocs > 0 {
				t.Errorf("%s engine: %v allocs per steady-state churn cycle, want 0", engine, allocs)
			}
			replayed, total = e.fs.replayedRounds-replayed, e.fs.totalRounds-total
			if !e.dense && (replayed == 0 || replayed == total) {
				t.Errorf("churn replayed %d of %d rounds, want some but not all", replayed, total)
			}
		})
	}
}
