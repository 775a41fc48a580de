package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/tcp"
	"github.com/aapc-sched/aapcsched/internal/obsv"
)

// realSpec is a real-byte workload: what `aapcnode -local -topo b` runs,
// with the link kind pinned.
type realSpec struct {
	alg   string // "ours" or "lam"
	shm   bool   // co-located shm links (the default) or forced tcp
	msize int
	// warmup is the number of verified but untimed ops each world runs
	// first. On shm_lam_64k, 16 ops at 64 KiB wrap every 1 MiB link ring
	// once, so first-touch page faults on the fresh segments are behind.
	// On shm_ours_64k an op takes seconds and link polling, not page
	// faults, dominates it; its first op is timed, as every aapcnode
	// process pays it.
	warmup int
}

var realWorkloads = map[string]realSpec{
	"shm_ours_64k": {alg: "ours", shm: true, msize: 64 << 10, warmup: 0},
	"shm_lam_64k":  {alg: "lam", shm: true, msize: 64 << 10, warmup: 16},
	"tcp_ours_8k":  {alg: "ours", shm: false, msize: 8 << 10, warmup: 1},
}

const (
	// worldsPerRun is how many worlds a run sets up one after another;
	// setup_s is the median of their set-ups.
	worldsPerRun = 10
	// watchdog bounds each stage of an operation; a stage that takes longer
	// counts as a hung all-to-all.
	watchdog = 60 * time.Second
	// probeWindow is how long the parked-world probe samples CPU.
	probeWindow = time.Second
	// probeTag is above every tag the all-to-all routines use.
	probeTag = 1 << 28
)

// rankState is one rank's benchmark-side state.
type rankState struct {
	rank int
	raw  mpi.Comm
	ic   mpi.Comm
	rec  *obsv.Recorder
	buf  *alltoall.Contig
	log  *spanLog
	cmds chan cmd
}

type cmdKind int

const (
	cmdOp cmdKind = iota
	cmdVerify
	cmdProbe
)

// cmd is one instruction from the conductor to a rank goroutine.
type cmd struct {
	kind   cmdKind
	op     int
	traced bool
	parent uint64 // the op's span id
}

// rankReport is a rank's answer to one cmd.
type rankReport struct {
	rank   int
	t0, t1 float64 // Comm.Now around the Func call
	err    error
	events int
	hists  [4]obsv.Histogram // send, recv, sync and barrier wait
	stage  string
}

// loop serves the conductor's commands until the channel closes.
func (r *rankState) loop(w *world, peers []*rankState, msize int, out chan<- rankReport) {
	for c := range r.cmds {
		switch c.kind {
		case cmdOp:
			out <- r.runOp(w, c, msize)
		case cmdVerify:
			out <- r.verify(c, peers)
		case cmdProbe:
			r.probe(w.n, out)
		}
	}
}

// runOp is one timed all-to-all: stamp the op number into every send block,
// barrier, then the Func call. Every op after the first runs through a
// fresh obsv wrapper and recorder, as each aapcnode process runs its one
// all-to-all, so recorder memory does not grow with the run's length.
func (r *rankState) runOp(w *world, c cmd, msize int) rankReport {
	rep := rankReport{rank: r.rank, stage: "all-to-all"}
	if c.op > 0 {
		r.rec = obsv.NewRecorder(r.rank)
		r.ic = obsv.Instrument(r.raw, r.rec)
	}
	for dst := 0; dst < w.n; dst++ {
		binary.LittleEndian.PutUint64(r.buf.SendBlock(dst), uint64(c.op))
	}
	lg := r.log
	if !c.traced {
		lg = nil
	}
	trace := uint64(c.op) + 1
	bid, bs := lg.start()
	rep.err = r.ic.Barrier()
	lg.finish(bid, c.parent, trace, "barrier", r.rank, bs)
	if rep.err != nil {
		return rep
	}
	fid, fs := lg.start()
	rep.t0 = r.ic.Now()
	rep.err = w.fn(r.ic, r.buf, msize)
	rep.t1 = r.ic.Now()
	lg.finish(fid, c.parent, trace, "func", r.rank, fs)
	return rep
}

// verify checks every received block against the block its sender sent
// (which carries this op's stamp), clears the receive buffer so a missing
// delivery cannot pass next time, and snapshots the op's recorder.
func (r *rankState) verify(c cmd, peers []*rankState) rankReport {
	rep := rankReport{rank: r.rank, stage: "verification"}
	lg := r.log
	if !c.traced {
		lg = nil
	}
	vid, vs := lg.start()
	for src, p := range peers {
		got := r.buf.RecvBlock(src)
		if stamp := binary.LittleEndian.Uint64(got); stamp != uint64(c.op) {
			rep.err = fmt.Errorf("rank %d: block from %d carries op stamp %d, want %d", r.rank, src, stamp, c.op)
			break
		}
		if !bytes.Equal(got, p.buf.SendBlock(r.rank)) {
			rep.err = fmt.Errorf("rank %d: corrupt block from %d in op %d", r.rank, src, c.op)
			break
		}
	}
	clear(r.buf.Recv)
	lg.finish(vid, c.parent, uint64(c.op)+1, "verify", r.rank, vs)
	rep.events = r.rec.NumEvents()
	rep.hists = [4]obsv.Histogram{r.rec.SendWait(), r.rec.RecvWait(), r.rec.SyncWait(), r.rec.BarrierWait()}
	return rep
}

// probe parks the rank in a blocking receive from its left neighbour. It
// reports once parked and once the conductor's message has arrived.
func (r *rankState) probe(n int, out chan<- rankReport) {
	var tok [1]byte
	req := r.raw.Irecv(tok[:], (r.rank-1+n)%n, probeTag)
	out <- rankReport{rank: r.rank, stage: "probe"}
	err := req.Wait()
	if err == nil && tok[0] != byte(r.rank) {
		err = fmt.Errorf("rank %d: probe token %d", r.rank, tok[0])
	}
	out <- rankReport{rank: r.rank, stage: "probe", err: err}
}

// fillPattern writes the seeded pattern into every send block: 8-byte words
// of a splitmix64 stream keyed by (seed, src, dst). The first word of each
// block is overwritten by the op stamp.
func fillPattern(b *alltoall.Contig, seed int64, src, n int) {
	for dst := 0; dst < n; dst++ {
		blk := b.SendBlock(dst)
		x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(src)<<32 ^ uint64(dst)
		for i := 0; i+8 <= len(blk); i += 8 {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			binary.LittleEndian.PutUint64(blk[i:], z^z>>31)
		}
	}
}

// checkPattern confirms the send blocks still hold the seeded pattern (past
// the op stamp): the transports must never write into a send buffer.
func checkPattern(b *alltoall.Contig, seed int64, src, n int) error {
	ref := alltoall.NewContig(n, b.Msize)
	fillPattern(ref, seed, src, n)
	for dst := 0; dst < n; dst++ {
		if !bytes.Equal(b.SendBlock(dst)[8:], ref.SendBlock(dst)[8:]) {
			return fmt.Errorf("rank %d: send block for %d was modified", src, dst)
		}
	}
	return nil
}

// conductor runs the closed loop over a world's rank goroutines.
type conductor struct {
	w     *world
	ranks []*rankState
	out   chan rankReport
	main  *spanLog
}

var errWatchdog = errors.New("watchdog: a stage did not finish in time")

// broadcast sends c to every rank and collects one report from each.
func (d *conductor) broadcast(c cmd) ([]rankReport, error) {
	for _, r := range d.ranks {
		r.cmds <- c
	}
	return d.collect()
}

func (d *conductor) collect() ([]rankReport, error) {
	reps := make([]rankReport, 0, len(d.ranks))
	timer := time.NewTimer(watchdog)
	defer timer.Stop()
	for range d.ranks {
		select {
		case rep := <-d.out:
			reps = append(reps, rep)
		case <-timer.C:
			return reps, errWatchdog
		}
	}
	for _, rep := range reps {
		if rep.err != nil {
			return reps, fmt.Errorf("%s: %w", rep.stage, rep.err)
		}
	}
	return reps, nil
}

// opSample is one all-to-all's measurements.
type opSample struct {
	slowest   float64 // seconds
	rankTimes []float64
	use       usage
	events    int
	hists     [4]obsv.Histogram
	traced    bool
}

// op runs one closed-loop iteration: the timed all-to-all, then the
// untimed verification.
func (d *conductor) op(k int, traced bool) (opSample, error) {
	var s opSample
	s.traced = traced
	lg := d.main
	if !traced {
		lg = nil
	}
	id, st := lg.start()
	u0 := readUsage()
	reps, err := d.broadcast(cmd{kind: cmdOp, op: k, traced: traced, parent: id})
	s.use = readUsage().sub(u0)
	if err != nil {
		return s, err
	}
	for _, rep := range reps {
		dt := rep.t1 - rep.t0
		s.rankTimes = append(s.rankTimes, dt)
		s.slowest = max(s.slowest, dt)
	}
	reps, err = d.broadcast(cmd{kind: cmdVerify, op: k, traced: traced, parent: id})
	lg.finish(id, 0, uint64(k)+1, "op", -1, st)
	if err != nil {
		return s, err
	}
	for _, rep := range reps {
		s.events += rep.events
		for i := range s.hists {
			s.hists[i].Merge(&rep.hists[i])
		}
	}
	return s, nil
}

// probeIdle parks every rank in a blocking receive, samples process CPU
// over probeWindow, then satisfies the receives. It returns the CPU cores
// busy while parked and the goroutine count of the parked world.
func (d *conductor) probeIdle() (cores float64, goroutines int, err error) {
	id, st := d.main.start()
	defer d.main.finish(id, 0, 0, "probe", -1, st)
	if _, err := d.broadcast(cmd{kind: cmdProbe}); err != nil {
		return 0, 0, err
	}
	// Let every rank reach its blocking Wait before sampling.
	time.Sleep(50 * time.Millisecond)
	goroutines = runtime.NumGoroutine()
	u0 := readUsage()
	time.Sleep(probeWindow)
	u1 := readUsage()
	cores = u1.sub(u0).cpu.Seconds() / u1.wall.Sub(u0.wall).Seconds()
	n := d.w.n
	for _, r := range d.ranks {
		tok := []byte{byte((r.rank + 1) % n)}
		if err := r.raw.Isend(tok, (r.rank+1)%n, probeTag).Wait(); err != nil {
			return 0, 0, fmt.Errorf("probe send: %w", err)
		}
	}
	if _, err := d.collect(); err != nil {
		return 0, 0, err
	}
	return cores, goroutines, nil
}

// realRun is one run of a real-byte workload. It sets up worldsPerRun
// worlds in turn; each is warmed, driven for its share of the window and
// closed. Spreading the window over several worlds averages out the
// world-to-world differences of the polling shm links.
type realRun struct {
	cfg     runConfig
	spec    realSpec
	tr      *tracer
	main    *spanLog
	res     *result
	setups  []setupStats
	samples []opSample
	spent   time.Duration      // time of the timed ops so far
	bufs    []*alltoall.Contig // by rank, shared by the run's worlds
	// Read in the traced run only.
	stats                    tcp.Stats // counter deltas over the timed ops
	shmLinks                 uint64
	mallocs, allocBytes, gcs uint64
	cores                    float64
	parked                   int
}

// runReal runs one real-byte workload.
func runReal(cfg runConfig, spec realSpec) (*result, error) {
	if err := refuseEnv(); err != nil {
		return nil, err
	}
	rr := &realRun{cfg: cfg, spec: spec, res: newResult()}
	if cfg.traced {
		rr.tr = newTracer()
	}
	rr.main = rr.tr.log()
	rr.res.idle = []string{"simnet."}
	for i := 0; i < worldsPerRun; i++ {
		w, st, err := setupWorld(spec, rr.tr, rr.main)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rr.setups = append(rr.setups, st)
		if err := w.checkLinks(spec); err != nil {
			w.kill()
			return nil, err
		}
		// World i's ops run until the timed ops have used i+1 shares of the
		// window. A traced run traces its later worlds only, so the earlier
		// ones give the untraced baseline for the overhead.
		end := cfg.seconds * time.Duration(i+1) / worldsPerRun
		traced := cfg.traced && i >= worldsPerRun/2
		last := i == worldsPerRun-1
		if err := rr.drive(w, end, traced, last); err != nil {
			rr.res.failed++
			rr.res.problem("op %d: %v", rr.res.attempted-1, err)
			return rr.res, nil
		}
		if err := w.close(); err != nil {
			rr.res.problem("closing world %d: %v", i, err)
		}
		progress("world %d done: %d timed all-to-alls so far", i, len(rr.samples))
	}
	for r, buf := range rr.bufs {
		if err := checkPattern(buf, cfg.seed, r, len(rr.bufs)); err != nil {
			rr.res.problem("%v", err)
		}
	}
	if len(rr.samples) == 0 {
		rr.res.problem("no timed all-to-all completed")
		return rr.res, nil
	}
	if cfg.traced {
		cores, err := rr.probeLinked()
		if err != nil {
			rr.res.problem("shm twin probe: %v", err)
		}
		rr.res.set("shm.linked_idle_cpu_cores", cores, "cores", 1)
	}
	rr.report()
	return rr.res, nil
}

// drive runs the closed loop on one world: warm-up ops, then timed ops up
// to the loop-time mark end, then, in the last world of a traced run, the
// parked-world probe. On error it kills the world.
func (rr *realRun) drive(w *world, end time.Duration, traced, final bool) error {
	d, stop := rr.startRanks(w)
	err := rr.ops(d, end, traced, final)
	if err == nil && final && rr.cfg.traced {
		rr.cores, rr.parked, err = d.probeIdle()
	}
	stop(err)
	return err
}

// startRanks starts one goroutine per rank of w serving a conductor's
// commands. The stop function ends them; after an error it first kills the
// world, to unblock any rank stuck in the transport, and waits a bounded
// time.
func (rr *realRun) startRanks(w *world) (*conductor, func(error)) {
	if rr.bufs == nil {
		// The buffers outlive the worlds: filled once, checked once.
		for r := 0; r < w.n; r++ {
			buf := alltoall.NewContig(w.n, rr.spec.msize)
			fillPattern(buf, rr.cfg.seed, r, w.n)
			rr.bufs = append(rr.bufs, buf)
		}
	}
	d := &conductor{w: w, main: rr.main, out: make(chan rankReport, w.n)}
	d.ranks = make([]*rankState, w.n)
	for r := 0; r < w.n; r++ {
		d.ranks[r] = &rankState{rank: r, raw: w.raw[r], ic: w.ic[r], rec: w.recs[r],
			buf: rr.bufs[r], log: rr.tr.log(), cmds: make(chan cmd)}
	}
	var wg sync.WaitGroup
	for _, r := range d.ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.loop(w, d.ranks, rr.spec.msize, d.out)
		}()
	}
	return d, func(err error) {
		if err != nil {
			w.kill()
		}
		for _, r := range d.ranks {
			close(r.cmds)
		}
		if err != nil {
			waitTimeout(&wg, 10*time.Second)
			return
		}
		wg.Wait()
	}
}

// probeLinked runs the parked-world probe on a twin of the workload's world
// whose pairs all use shm links: the idle cost of the shm layer, measured
// on every real-byte workload whatever its own link kind.
func (rr *realRun) probeLinked() (float64, error) {
	if rr.spec.shm {
		return rr.cores, nil
	}
	spec := rr.spec
	spec.shm = true
	w, _, err := setupWorld(spec, nil, nil)
	if err != nil {
		return 0, fmt.Errorf("twin set-up: %w", err)
	}
	if err := w.checkLinks(spec); err != nil {
		w.kill()
		return 0, err
	}
	d, stop := rr.startRanks(w)
	cores, _, err := d.probeIdle()
	stop(err)
	if err != nil {
		return 0, err
	}
	return cores, w.close()
}

// ops runs the warm-up and the timed ops of one world; final marks the
// run's last world.
func (rr *realRun) ops(d *conductor, end time.Duration, traced, final bool) error {
	k := 0
	for ; k < rr.spec.warmup; k++ {
		rr.res.attempted++
		if _, err := d.op(k, false); err != nil {
			return err
		}
	}
	var ms runtime.MemStats
	if rr.cfg.traced {
		subStats(&rr.stats, d.w.stats())
		runtime.ReadMemStats(&ms)
		rr.mallocs -= ms.Mallocs
		rr.allocBytes -= ms.TotalAlloc
		rr.gcs -= uint64(ms.NumGC)
	}
	// Every world runs at least one op. Earlier worlds run ops until the
	// mark is passed; the last starts another only if, at the last op's
	// pace, it ends by the mark, so the run stays within its window.
	var last time.Duration
	more := func() bool {
		if final {
			return rr.spent+last <= end
		}
		return rr.spent < end
	}
	for first := true; first || more(); first = false {
		rr.res.attempted++
		t := time.Now()
		s, err := d.op(k, traced)
		if err != nil {
			return err
		}
		k++
		last = time.Since(t)
		rr.spent += last
		rr.samples = append(rr.samples, s)
	}
	if rr.cfg.traced {
		st := d.w.stats()
		addStats(&rr.stats, st)
		rr.shmLinks = st.ShmLinks
		runtime.ReadMemStats(&ms)
		rr.mallocs += ms.Mallocs
		rr.allocBytes += ms.TotalAlloc
		rr.gcs += uint64(ms.NumGC)
	}
	return nil
}

// report sets the run's metrics.
func (rr *realRun) report() {
	res, samples := rr.res, rr.samples
	n := len(samples)
	var slowest []float64
	var use usage
	for _, s := range samples {
		slowest = append(slowest, s.slowest)
		use = use.add(s.use)
	}
	res.notes = append(res.notes, p90Note(slowest), fmt.Sprintf("fail_frac %d/%d", res.failed, res.attempted))
	if !rr.cfg.traced {
		var totals []float64
		for _, st := range rr.setups {
			totals = append(totals, st.total)
		}
		res.set("alltoall_ms_p50", median(slowest)*1e3, "ms", n)
		res.set("cpu_ms_per_alltoall", use.cpu.Seconds()*1e3/float64(n), "ms", n)
		res.set("setup_s", median(totals), "s", len(totals))
		return
	}

	var comps []compileStats
	var joins []float64
	for _, st := range rr.setups {
		comps = append(comps, st.comp)
		joins = append(joins, st.join)
	}
	setCompileMetrics(res, comps)
	res.set("tcp.join_s", median(joins), "s", len(joins))

	var rankTimes, skews, plain, traced []float64
	var events int
	var hists [4]obsv.Histogram
	for _, s := range samples {
		rankTimes = append(rankTimes, s.rankTimes...)
		skews = append(skews, quantile(s.rankTimes, 1)-quantile(s.rankTimes, 0))
		events += s.events
		for i := range hists {
			hists[i].Merge(&s.hists[i])
		}
		if s.traced {
			traced = append(traced, s.slowest)
		} else {
			plain = append(plain, s.slowest)
		}
	}
	fn := float64(n)
	res.set("alltoall.rank_ms_p50", median(rankTimes)*1e3, "ms", len(rankTimes))
	res.set("alltoall.skew_ms_p50", median(skews)*1e3, "ms", n)

	ds := rr.stats
	res.set("tcp.frames_per_op", float64(ds.FramesSent)/fn, "count", n)
	res.set("tcp.writevs_per_op", float64(ds.Writevs)/fn, "count", n)
	res.set("tcp.coalescing", ratio(float64(ds.FramesSent+ds.AcksSent), float64(ds.Writevs)), "ratio", n)
	res.set("tcp.payload_copies_per_op", float64(ds.PayloadCopies)/fn, "count", n)
	res.set("tcp.borrow_ratio", ratio(float64(ds.BorrowedSends), float64(ds.BorrowedSends+ds.CopiedSends)), "ratio", n)
	res.set("tcp.zero_copy_recvs_per_op", float64(ds.ZeroCopyRecvs)/fn, "count", n)
	res.set("tcp.retransmits", float64(ds.Retransmits), "count", n)
	res.set("tcp.reconnects", float64(ds.Reconnects), "count", n)
	res.set("tcp.dup_discards", float64(ds.DupDiscards), "count", n)
	res.set("tcp.shm_links", float64(rr.shmLinks), "count", 1)
	res.set("tcp.shm_bytes_per_op", float64(ds.ShmBytesSent)/fn, "B", n)
	res.set("tcp.tcp_bytes_per_op", float64(ds.TCPBytesSent)/fn, "B", n)

	res.set("shm.idle_cpu_cores", rr.cores, "cores", 1)

	const us = 1e-3 // histogram values are nanoseconds
	res.set("obsv.send_wait_us_p50", hists[0].Quantile(0.5)*us, "us", int(hists[0].Count()))
	res.set("obsv.recv_wait_us_p50", hists[1].Quantile(0.5)*us, "us", int(hists[1].Count()))
	res.set("obsv.sync_wait_us_p50", hists[2].Quantile(0.5)*us, "us", int(hists[2].Count()))
	res.set("obsv.sync_wait_us_p90", hists[2].Quantile(0.9)*us, "us", int(hists[2].Count()))
	res.set("obsv.barrier_wait_us_p50", hists[3].Quantile(0.5)*us, "us", int(hists[3].Count()))
	res.set("obsv.events_per_op", float64(events)/fn, "count", n)

	setProcMetrics(res, use, n, rr.mallocs, rr.allocBytes, rr.gcs)
	res.set("go.goroutines_parked", float64(rr.parked), "count", 1)
	setTraceMetrics(res, rr.tr, rr.cfg, median(traced), median(plain), len(traced))
}

// setProcMetrics reports the kernel and runtime split of the CPU spent on
// n ops, given the runtime's allocation and GC counts over them.
func setProcMetrics(res *result, use usage, n int, mallocs, allocBytes, gcs uint64) {
	fn := float64(n)
	res.set("proc.user_cpu_ms_per_op", use.user.Seconds()*1e3/fn, "ms", n)
	res.set("proc.sys_cpu_ms_per_op", use.sys.Seconds()*1e3/fn, "ms", n)
	res.set("proc.vol_ctxsw_per_op", float64(use.vcsw)/fn, "count", n)
	res.set("proc.invol_ctxsw_per_op", float64(use.ivcsw)/fn, "count", n)
	res.set("go.allocs_per_op", float64(mallocs)/fn, "count", n)
	res.set("go.alloc_bytes_per_op", float64(allocBytes)/fn, "B", n)
	res.set("go.gc_cycles_per_op", float64(gcs)/fn, "count", n)
}

// setTraceMetrics reports the layers' self times from the spans, the
// tracing overhead (traced against untraced operations of the same run),
// and writes the spans out.
func setTraceMetrics(res *result, tr *tracer, cfg runConfig, traced, plain float64, n int) {
	spans := tr.all()
	for name, self := range selfTimes(spans) {
		res.set("self."+name+"_ms", self.mean*1e3, "ms", self.n)
	}
	res.set("trace.overhead_frac", ratio(traced-plain, plain), "ratio", n)
	res.set("trace.spans", float64(len(spans)), "count", 1)
	path, err := writeSpans(".bench_out", fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed), spans)
	if err != nil {
		res.problem("writing spans: %v", err)
		return
	}
	res.notes = append(res.notes, "spans written to "+path)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// p90Note reports the all-to-all tail where the run holds at least ten
// samples beyond the 90th percentile, and says why not otherwise.
func p90Note(xs []float64) string {
	if len(xs) < 100 {
		return fmt.Sprintf("alltoall_ms_p90 not reported: %d samples, 100 needed for ten beyond p90", len(xs))
	}
	return fmt.Sprintf("alltoall_ms_p90 %s ms over %d samples",
		strings.TrimRight(fmt.Sprintf("%.6f", quantile(xs, 0.9)*1e3), "0"), len(xs))
}

// waitTimeout waits for wg, giving up after d.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
	}
}
