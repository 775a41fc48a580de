package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls. Spans of one all-to-all share Trace (the op
// number + 1); Parent links a span to the span that caused it.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace,omitempty"`
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer hands out span ids and timestamps relative to one origin. Each
// goroutine appends to its own spanLog, so recording takes no lock; the logs
// are merged once, at the end of the run.
type tracer struct {
	origin time.Time
	nextID atomic.Uint64
	logs   []*spanLog
}

// spanLog is one goroutine's span buffer. A nil *spanLog records nothing,
// which is how the untraced run and the untraced half of a traced run skip
// tracing without branching at every call site.
type spanLog struct {
	t     *tracer
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// log returns a new per-goroutine buffer, or nil from a nil tracer. It must
// be called before the goroutine starts, from the goroutine that will merge
// the logs.
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{t: t}
	t.logs = append(t.logs, l)
	return l
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// start opens a span and returns its id and start time; finish closes it.
func (l *spanLog) start() (uint64, int64) {
	if l == nil {
		return 0, 0
	}
	return l.t.nextID.Add(1), l.t.now()
}

func (l *spanLog) finish(id, parent, trace uint64, name string, rank int, start int64) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Rank: rank, Start: start, End: l.t.now()})
}

// all merges every goroutine's spans, ordered by start time.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	var out []span
	for _, l := range t.logs {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// selfTime is the mean self time of the spans of one name, in seconds: a
// span's duration minus the part of its interval its child spans cover.
type selfTime struct {
	mean float64
	n    int
}

// selfTimes returns the self time of every span name.
func selfTimes(spans []span) map[string]selfTime {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total := make(map[string]float64)
	count := make(map[string]int)
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		total[s.Name] += float64(self) / 1e9
		count[s.Name]++
	}
	out := make(map[string]selfTime, len(total))
	for name, t := range total {
		out[name] = selfTime{mean: t / float64(count[name]), n: count[name]}
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

// writeSpans writes the spans as JSONL under dir, one object per line.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
