package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/shm"
	"github.com/aapc-sched/aapcsched/internal/mpi/tcp"
	"github.com/aapc-sched/aapcsched/internal/obsv"
)

const (
	rendezvous = 30 * time.Second
	// hostID pins every rank to one host identity, so co-located ranks link
	// through shm unless the workload forces tcp.
	hostID = "e2ebench"
)

// world is one 32-rank distributed world and its compiled routine.
type world struct {
	n         int
	coordAddr string
	raw       []mpi.Comm // by rank
	ic        []mpi.Comm // obsv-instrumented raw
	recs      []*obsv.Recorder
	closers   []func() error
	fn        alltoall.Func
}

// setupStats times one set-up.
type setupStats struct {
	total, join float64
	comp        compileStats
}

// setupWorld performs aapcnode -local's set-up: load the preset, compile the
// routine, start a coordinator, join every rank and instrument it.
func setupWorld(spec realSpec, tr *tracer, lg *spanLog) (*world, setupStats, error) {
	var st setupStats
	id, s0 := lg.start()
	defer lg.finish(id, 0, 0, "setup", -1, s0)
	t0 := time.Now()

	pid, ps := lg.start()
	g, err := harness.Preset("b")
	lg.finish(pid, id, 0, "preset", -1, ps)
	if err != nil {
		return nil, st, err
	}
	w := &world{n: g.NumMachines()}
	if spec.alg == "ours" {
		sc, cs, err := compileOurs(g, lg, id)
		if err != nil {
			return nil, st, err
		}
		w.fn, st.comp = sc.Fn(), cs
	} else {
		w.fn = alltoall.Simple
	}

	cid, cst := lg.start()
	coord, err := tcp.StartCoordinator("127.0.0.1:0", w.n, tcp.WithRendezvousTimeout(rendezvous))
	lg.finish(cid, id, 0, "coordinator", -1, cst)
	if err != nil {
		return nil, st, err
	}
	w.coordAddr = coord.Addr()
	opts := []tcp.JoinOption{tcp.WithHostID(hostID)}
	if !spec.shm {
		opts = append(opts, tcp.WithoutSharedMemory())
	}
	type joined struct {
		c     mpi.Comm
		close func() error
		ic    mpi.Comm
		rec   *obsv.Recorder
		secs  float64
		err   error
	}
	ch := make(chan joined, w.n)
	for i := 0; i < w.n; i++ {
		jl := tr.log()
		go func() {
			var j joined
			jid, js := jl.start()
			jt := time.Now()
			j.c, j.close, j.err = tcp.JoinRetry(w.coordAddr, rendezvous, opts...)
			j.secs = time.Since(jt).Seconds()
			rank := -1
			if j.err == nil {
				rank = j.c.Rank()
			}
			jl.finish(jid, id, 0, "join", rank, js)
			if j.err == nil {
				iid, is := jl.start()
				j.rec = obsv.NewRecorder(rank)
				j.ic = obsv.Instrument(j.c, j.rec)
				jl.finish(iid, id, 0, "instrument", rank, is)
			}
			ch <- j
		}()
	}
	w.raw = make([]mpi.Comm, w.n)
	w.ic = make([]mpi.Comm, w.n)
	w.recs = make([]*obsv.Recorder, w.n)
	var firstErr error
	for i := 0; i < w.n; i++ {
		j := <-ch
		if j.err != nil {
			if firstErr == nil {
				firstErr = j.err
			}
			continue
		}
		r := j.c.Rank()
		w.raw[r], w.ic[r], w.recs[r] = j.c, j.ic, j.rec
		w.closers = append(w.closers, j.close)
		st.join = max(st.join, j.secs)
	}
	if err := coord.Wait(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		for _, cl := range w.closers {
			cl()
		}
		return nil, st, firstErr
	}
	st.total = time.Since(t0).Seconds()
	return w, st, nil
}

// stats sums the transport counters over every rank.
func (w *world) stats() tcp.Stats {
	var sum tcp.Stats
	for _, c := range w.raw {
		if sr, ok := c.(interface{ TransportStats() tcp.Stats }); ok {
			addStats(&sum, sr.TransportStats())
		}
	}
	return sum
}

// counters lists the transport counters the benchmark reads.
func counters(s *tcp.Stats) []*uint64 {
	return []*uint64{&s.FramesSent, &s.AcksSent, &s.Writevs, &s.Reconnects, &s.Retransmits,
		&s.DupDiscards, &s.BorrowedSends, &s.CopiedSends, &s.PayloadCopies, &s.ZeroCopyRecvs,
		&s.ShmLinks, &s.ShmBytesSent, &s.TCPBytesSent}
}

func addStats(dst *tcp.Stats, s tcp.Stats) {
	d, v := counters(dst), counters(&s)
	for i := range d {
		*d[i] += *v[i]
	}
}

func subStats(dst *tcp.Stats, s tcp.Stats) {
	d, v := counters(dst), counters(&s)
	for i := range d {
		*d[i] -= *v[i]
	}
}

// segments counts this world's shm pair segment files. The name scheme is
// the tcp transport's: aapc-pair-<fnv64a of the coordinator address>-lo-hi.
// checkLinks asserts a live shm world has one file per pair, so a changed
// scheme fails loudly instead of passing the leak check vacuously.
func (w *world) segments() (int, error) {
	token := fnvToken(w.coordAddr)
	names, err := filepath.Glob(filepath.Join(shm.SegmentDir(), "aapc-pair-"+token+"-*"))
	return len(names), err
}

func fnvToken(s string) string {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return fmt.Sprintf("%016x", h)
}

// checkLinks is the link-mix guard: every pair rides shm on shm workloads
// (two link ends per pair) and none does on tcp ones.
func (w *world) checkLinks(spec realSpec) error {
	want, wantSegs := 0, 0
	if spec.shm {
		want, wantSegs = w.n*(w.n-1), w.n*(w.n-1)/2
	}
	if got := w.stats().ShmLinks; got != uint64(want) {
		return fmt.Errorf("link-mix guard: %d shm link ends summed over ranks, want %d", got, want)
	}
	segs, err := w.segments()
	if err != nil {
		return err
	}
	if segs != wantSegs {
		return fmt.Errorf("link-mix guard: %d pair segments in %s, want %d", segs, shm.SegmentDir(), wantSegs)
	}
	return nil
}

// close runs aapcnode's closing barrier on every rank, closes every link and
// checks that no pair segment of the world is left behind.
func (w *world) close() error {
	errs := make(chan error, w.n)
	for r := 0; r < w.n; r++ {
		go func() { errs <- w.ic[r].Barrier() }()
	}
	var first error
	for r := 0; r < w.n; r++ {
		if err := <-errs; err != nil && first == nil {
			first = fmt.Errorf("closing barrier: %w", err)
		}
	}
	w.kill()
	if segs, err := w.segments(); err != nil {
		return err
	} else if segs != 0 && first == nil {
		first = fmt.Errorf("%d shm pair segments of the closed world left in %s", segs, shm.SegmentDir())
	}
	return first
}

// kill closes every link without a barrier. Ranks close concurrently, as
// the separate processes of a real launch would exit.
func (w *world) kill() {
	var wg sync.WaitGroup
	for _, cl := range w.closers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl()
		}()
	}
	wg.Wait()
}

// refuseEnv rejects environment overrides that would silently change the
// link kind.
func refuseEnv() error {
	for _, v := range []string{"AAPC_SHM", "AAPC_HOST"} {
		if val, ok := os.LookupEnv(v); ok {
			return fmt.Errorf("refusing inherited %s=%q: it would override the workload's link kind", v, val)
		}
	}
	return nil
}
