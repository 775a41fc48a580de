// Package collect is the cluster-wide trace collector: it merges per-rank
// span logs (obsv JSONL) into one causally-linked DAG on a common timebase
// and answers the questions the paper's schedules pose — which chain of
// sends and waits bounds the makespan (critical path), which rank or link
// drags each phase (straggler attribution), and where a measured run
// diverges from the simulator's contention-free prediction.
//
// The collector is transport-agnostic: it consumes the Seq/LinkSeq/Deliver
// causal fields the obsv layer records on any traced transport (mem, tcp,
// distributed tcp, simnet). It can run embedded (harness, tests), behind
// the schedule daemon's HTTP mux (POST /v1/trace/ingest), or standalone in
// cmd/aapctrace.
package collect

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/simnet"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// MaxIngestBytes bounds one POST /v1/trace/ingest body; a larger body is
// refused with 413 once that many bytes have been read. For scale, a -local
// aapcnode run of ours on the 32-rank preset b pushes 0.9 MB (6.9k spans).
const MaxIngestBytes = 64 << 20

// MaxTraceRanks bounds the world size of an ingested trace: reports index
// ranks densely, and clock-offset estimation allocates ranks² entries.
const MaxTraceRanks = 1024

// Store accumulates per-rank event logs until a report is asked for. It is
// safe for concurrent ingestion.
type Store struct {
	mu     sync.Mutex
	byRank map[int][]obsv.Event
	meta   obsv.Meta
	common bool
	cnts   obsv.Counters
	// maxIngest is the ingest endpoint's body bound (MaxIngestBytes; tests
	// lower it).
	maxIngest int64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byRank: make(map[int][]obsv.Event), maxIngest: MaxIngestBytes}
}

// Counters exposes the store's ingestion counters so a Registry can merge
// them onto /metrics (aapc_trace_ingests_total, aapc_trace_spans_total,
// aapc_trace_ingest_rejected_total, aapc_trace_reports_total).
func (s *Store) Counters() *obsv.Counters { return &s.cnts }

// SetCommonClock records the producer's assertion that every rank's clock
// shares one epoch (true for the in-process transports: mem, tcp.Run,
// simnet), so analysis skips pairwise offset estimation. The estimator is
// for multi-host traces where clocks genuinely differ; running it on a
// shared clock can only add error, and under injected faults it is actively
// misled — a uniform delay on one rank's sends is indistinguishable, from
// minimum one-way delays alone, from that rank's clock running behind.
func (s *Store) SetCommonClock(v bool) {
	s.mu.Lock()
	s.common = v
	s.mu.Unlock()
}

// AddEvents ingests events, grouping them by their recorded rank.
func (s *Store) AddEvents(evs []obsv.Event) {
	if len(evs) == 0 {
		return
	}
	s.mu.Lock()
	for _, ev := range evs {
		s.byRank[ev.Rank] = append(s.byRank[ev.Rank], ev)
	}
	s.mu.Unlock()
	s.cnts.Inc("aapc_trace_ingests_total")
	s.cnts.Add("aapc_trace_spans_total", uint64(len(evs)))
}

// AddJSONL ingests one obsv JSONL trace (rank logs may be streamed in any
// interleaving; events carry their rank). The first meta header seen with a
// nonzero rank count wins.
func (s *Store) AddJSONL(r io.Reader) error {
	meta, evs, err := obsv.ReadJSONL(r)
	if err != nil {
		return err
	}
	if meta.Ranks > MaxTraceRanks {
		return fmt.Errorf("collect: trace of %d ranks exceeds %d", meta.Ranks, MaxTraceRanks)
	}
	for _, ev := range evs {
		if ev.Rank >= MaxTraceRanks {
			return fmt.Errorf("collect: span rank %d exceeds %d", ev.Rank, MaxTraceRanks-1)
		}
	}
	s.mu.Lock()
	if s.meta.Ranks == 0 && meta.Ranks > 0 {
		s.meta = meta
	}
	s.mu.Unlock()
	s.AddEvents(evs)
	return nil
}

// Meta returns the trace header the store adopted (zero value when none).
func (s *Store) Meta() obsv.Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meta
}

// Reset drops every ingested event, keeping the counters.
func (s *Store) Reset() {
	s.mu.Lock()
	s.byRank = make(map[int][]obsv.Event)
	s.meta = obsv.Meta{}
	s.mu.Unlock()
}

// NumSpans returns the total number of ingested events.
func (s *Store) NumSpans() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, evs := range s.byRank {
		n += len(evs)
	}
	return n
}

// ByRank returns the ingested events as a dense rank-indexed slice, each
// rank's log sorted by Seq (program order). The world size is the larger of
// the meta header's rank count and the highest rank seen.
func (s *Store) ByRank() [][]obsv.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.meta.Ranks
	for r := range s.byRank {
		if r+1 > n {
			n = r + 1
		}
	}
	out := make([][]obsv.Event, n)
	for r, evs := range s.byRank {
		if r < 0 {
			continue
		}
		cp := append([]obsv.Event(nil), evs...)
		sort.SliceStable(cp, func(i, j int) bool { return cp[i].Seq < cp[j].Seq })
		out[r] = cp
	}
	return out
}

// Span is one event mapped onto the common (rank-0) timebase.
type Span struct {
	obsv.Event
	// GStart/GEnd are Start/End plus the rank's estimated clock offset.
	GStart float64 `json:"gstart"`
	GEnd   float64 `json:"gend"`
	// GDeliver is the adjusted transport delivery time; 0 when unknown.
	GDeliver float64 `json:"gdeliver,omitempty"`
}

// effEnd is the moment the span's effect actually happened: the delivery
// time for a linked receive (the payload was there even if the rank drained
// the wait much later), the transport completion for a traced send (drain
// order must not inflate a send's apparent duration), End otherwise.
func (s *Span) effEnd() float64 {
	if s.GDeliver > 0 && (s.Kind == obsv.KindSend || (s.Kind == obsv.KindRecv && s.LinkSeq != 0)) {
		return s.GDeliver
	}
	return s.GEnd
}

// Merge maps the per-rank logs onto the common timebase. The result is
// ordered rank-major, Seq-minor — the canonical span order every analysis
// in this package indexes into.
func Merge(byRank [][]obsv.Event, offsets []float64) []Span {
	var out []Span
	for r, evs := range byRank {
		off := 0.0
		if r < len(offsets) {
			off = offsets[r]
		}
		for _, ev := range evs {
			sp := Span{Event: ev, GStart: ev.Start + off, GEnd: ev.End + off}
			if ev.Deliver > 0 {
				sp.GDeliver = ev.Deliver + off
			}
			out = append(out, sp)
		}
	}
	return out
}

// Report is the full analysis of one merged trace.
type Report struct {
	Meta    obsv.Meta `json:"meta"`
	Ranks   int       `json:"ranks"`
	Spans   int       `json:"spans"`
	Linked  int       `json:"linked"`
	Offsets []float64 `json:"offsets"`
	// Makespan is the span of the merged run on the common timebase.
	Makespan float64 `json:"makespan"`
	// Critical is the chain of spans bounding the makespan, in time order.
	Critical []CritStep `json:"critical"`
	// Phases holds the per-phase skew/straggler attribution.
	Phases []PhaseStat `json:"phases"`
	// SlowestRank lost the most time across phases (-1 when unknowable).
	SlowestRank int `json:"slowest_rank"`
	// Divergence compares the run against a simnet pricing of the same
	// schedule; nil when no prediction was supplied.
	Divergence *DivergenceReport `json:"divergence,omitempty"`
}

// Analyze builds the full report for the store's current contents. g, when
// non-nil, enables per-phase link attribution (paths between ranks).
func (s *Store) Analyze(g *topology.Graph) *Report {
	rep, _ := s.analyze(g)
	return rep
}

// AnalyzeWithPrediction is Analyze plus a sim-vs-real divergence section:
// flows is a simnet pricing of the same schedule (harness.MeasureTraced).
func (s *Store) AnalyzeWithPrediction(g *topology.Graph, flows []simnet.FlowRecord, opt DivergenceOptions) *Report {
	rep, spans := s.analyze(g)
	rep.Divergence = Divergence(spans, flows, g, opt)
	return rep
}

func (s *Store) analyze(g *topology.Graph) (*Report, []Span) {
	s.cnts.Inc("aapc_trace_reports_total")
	byRank := s.ByRank()
	s.mu.Lock()
	common := s.common
	s.mu.Unlock()
	offsets := make([]float64, len(byRank))
	if !common {
		offsets = EstimateOffsets(byRank)
	}
	spans := Merge(byRank, offsets)
	rep := &Report{
		Meta:    s.Meta(),
		Ranks:   len(byRank),
		Spans:   len(spans),
		Offsets: offsets,
	}
	for i := range spans {
		if spans[i].Kind == obsv.KindRecv && spans[i].LinkSeq != 0 {
			rep.Linked++
		}
	}
	var first, last float64
	for i := range spans {
		if i == 0 || spans[i].GStart < first {
			first = spans[i].GStart
		}
		if spans[i].GEnd > last {
			last = spans[i].GEnd
		}
	}
	if len(spans) > 0 {
		rep.Makespan = last - first
	}
	rep.Critical = CriticalPath(spans)
	rep.Phases = PhaseStats(spans, g)
	rep.SlowestRank = slowestRank(rep.Critical)
	return rep, spans
}

// slowestRank attributes the run's straggler from the critical path: each
// step's exclusive contribution — how far it pushed the path past its
// predecessor's effective end — is charged to its rank, and the rank with
// the largest total wins (ties to the lower rank; -1 on an empty path).
//
// Phase residence cannot answer this question: in an all-to-all every rank
// finishes together, so the waiters' residences inflate in lockstep with
// the straggler's — worst in the final phase, where the rank that raced
// ahead earliest shows the LONGEST stay while it sits blocked on the slow
// one. Exclusive path time has no such confound: a wait step's contribution
// is only the sliver past what it waited on, while the slow rank's own
// sends carry their full duration.
func slowestRank(path []CritStep) int {
	contrib := make(map[int]float64)
	for i, st := range path {
		base := st.Start
		if i > 0 {
			base = path[i-1].End
		}
		if d := st.End - base; d > 0 {
			contrib[st.Rank] += d
		}
	}
	best, bestT := -1, 0.0
	for r, t := range contrib {
		if best == -1 || t > bestT || (t == bestT && r < best) {
			best, bestT = r, t
		}
	}
	return best
}

// WriteText renders the report as the human-readable straggler/critical
// path summary shown by `aapctrace` and GET /v1/trace/report?format=text.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "trace report: %d ranks, %d spans (%d causally linked), makespan %.3fms\n",
		r.Ranks, r.Spans, r.Linked, r.Makespan*1e3)
	if r.Meta.Name != "" {
		fmt.Fprintf(w, "run: %s transport=%s msize=%d\n", r.Meta.Name, r.Meta.Transport, r.Meta.Msize)
	}
	fmt.Fprintf(w, "clock offsets vs rank 0:")
	for _, off := range r.Offsets {
		fmt.Fprintf(w, " %+.6fs", off)
	}
	fmt.Fprintln(w)
	if r.SlowestRank >= 0 {
		fmt.Fprintf(w, "straggler: rank %d\n", r.SlowestRank)
	}
	if len(r.Phases) > 0 {
		fmt.Fprintln(w, "per-phase attribution:")
		for _, p := range r.Phases {
			fmt.Fprintf(w, "  phase %d: enter-skew %.3fms, slowest rank %d (residence %.3fms), sync-wait %.3fms, transmit %.3fms",
				p.Phase, p.EnterSkew*1e3, p.SlowestRank, p.Residence*1e3, p.SyncWait*1e3, p.Transmit*1e3)
			if p.SlowestLink != "" {
				fmt.Fprintf(w, ", slowest link %s (%.3fms mean)", p.SlowestLink, p.SlowestLinkLatency*1e3)
			}
			fmt.Fprintln(w)
		}
	}
	if len(r.Critical) > 0 {
		fmt.Fprintf(w, "critical path (%d steps):\n", len(r.Critical))
		for _, st := range r.Critical {
			via := ""
			if st.ViaLink {
				via = " <-msg"
			}
			fmt.Fprintf(w, "  %8.3fms..%8.3fms rank %d %s peer=%d phase=%d seq=%d%s\n",
				st.Start*1e3, st.End*1e3, st.Rank, st.Kind, st.Peer, st.Phase, st.Seq, via)
		}
	}
	if d := r.Divergence; d != nil {
		fmt.Fprintf(w, "sim-vs-real divergence: %d messages matched (%d unmatched), scale %.3g, factor %.1f\n",
			d.Matched, d.Unmatched, d.Scale, d.Factor)
		for _, l := range d.Links {
			mark := " "
			if l.Flagged {
				mark = "!"
			}
			fmt.Fprintf(w, "  %s link %-12s %d/%d messages diverging\n", mark, l.Link, l.Diverging, l.Crossing)
		}
	}
}

// Text renders WriteText to a string.
func (r *Report) Text() string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

// Handler serves the collector over HTTP:
//
//	POST /v1/trace/ingest  — body is an obsv JSONL trace; merged into the store
//	                         (413 above MaxIngestBytes)
//	GET  /v1/trace/report  — JSON report (?format=text for the rendering)
//	GET  /v1/trace/events  — merged events as one JSONL trace
//	POST /v1/trace/reset   — drop ingested events
//
// The graph, when non-nil, enables link attribution in reports.
func Handler(s *Store, g *topology.Graph) http.Handler {
	return HandlerLive(s, func() *topology.Graph { return g })
}

// HandlerLive is Handler with a graph provider, for hosts whose topology
// evolves while the collector runs (the schedule daemon re-resolves its
// current version on every report). graph may return nil.
func HandlerLive(s *Store, graph func() *topology.Graph) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/trace/ingest", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		if err := s.AddJSONL(http.MaxBytesReader(w, req.Body, s.maxIngest)); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				s.cnts.Inc("aapc_trace_ingest_rejected_total")
				http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"spans\":%d}\n", s.NumSpans())
	})
	mux.HandleFunc("/v1/trace/report", func(w http.ResponseWriter, req *http.Request) {
		rep := s.Analyze(graph())
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			rep.WriteText(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	})
	mux.HandleFunc("/v1/trace/events", func(w http.ResponseWriter, req *http.Request) {
		byRank := s.ByRank()
		var evs []obsv.Event
		for _, r := range byRank {
			evs = append(evs, r...)
		}
		meta := s.Meta()
		if meta.Ranks == 0 {
			meta.Ranks = len(byRank)
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = obsv.WriteJSONL(w, meta, evs)
	})
	mux.HandleFunc("/v1/trace/reset", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		s.Reset()
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}
