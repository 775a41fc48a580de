package collect

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/obsv"
)

// ingestTrace is a small valid JSONL trace of n spans.
func ingestTrace(t testing.TB, n int) []byte {
	t.Helper()
	meta := obsv.Meta{Version: 1, Ranks: 2, Transport: "mem", Name: "h", Msize: 64}
	evs := make([]obsv.Event, n)
	for i := range evs {
		evs[i] = obsv.Event{Kind: obsv.KindSend, Rank: i % 2, Peer: 1 - i%2, Seq: uint64(i/2 + 1),
			Start: float64(i), End: float64(i) + 0.5, Bytes: 64}
	}
	var buf bytes.Buffer
	if err := obsv.WriteJSONL(&buf, meta, evs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ingest posts body to the store's ingest endpoint and returns the status.
func ingest(h http.Handler, body []byte) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/trace/ingest", bytes.NewReader(body)))
	return rec.Code
}

// TestHandlerIngestRejectsOversizeBody: a body over the bound is answered
// with 413, ingests nothing and is counted on /metrics; a body within it is
// still accepted, and a span rank past MaxTraceRanks is refused with 400.
func TestHandlerIngestRejectsOversizeBody(t *testing.T) {
	s := NewStore()
	small, big := ingestTrace(t, 4), ingestTrace(t, 200)
	s.maxIngest = int64(len(big) - 1)
	h := Handler(s, nil)
	if code := ingest(h, big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize ingest: status %d, want 413", code)
	}
	if n := s.NumSpans(); n != 0 {
		t.Errorf("oversize ingest stored %d spans, want 0", n)
	}
	if code := ingest(h, small); code != http.StatusOK {
		t.Fatalf("small ingest: status %d, want 200", code)
	}
	if n := s.NumSpans(); n != 4 {
		t.Errorf("small ingest stored %d spans, want 4", n)
	}
	// A rank past MaxTraceRanks would make reports allocate ranks² entries.
	if code := ingest(h, []byte(fmt.Sprintf("{\"kind\":\"send\",\"rank\":%d}\n", MaxTraceRanks))); code != http.StatusBadRequest {
		t.Fatalf("ingest of rank %d: status %d, want 400", MaxTraceRanks, code)
	}
	if n := s.NumSpans(); n != 4 {
		t.Errorf("after the refused ingests the store holds %d spans, want 4", n)
	}
	if !obsv.Enabled {
		return // counters compile to no-ops
	}
	reg := obsv.NewRegistry()
	reg.AddCounters(s.Counters())
	var m bytes.Buffer
	reg.WriteMetrics(&m)
	if !strings.Contains(m.String(), "aapc_trace_ingest_rejected_total 1") {
		t.Errorf("/metrics lacks aapc_trace_ingest_rejected_total 1:\n%s", m.String())
	}
}

// FuzzIngestJSONL feeds arbitrary bodies to the ingest endpoint under a
// small bound: it must answer 200, 400 or 413 without panicking, store
// nothing from a refused body, accept nothing over the bound, and leave a
// store a report can be built from.
func FuzzIngestJSONL(f *testing.F) {
	const limit = 4 << 10
	f.Add(ingestTrace(f, 4))
	f.Add(ingestTrace(f, 100)) // over the bound
	f.Add([]byte{})
	f.Add([]byte("{\"meta\":{\"ranks\":-3}}\n{\"kind\":\"send\",\"rank\":-1,\"peer\":7}\n"))
	f.Add([]byte("{\"kind\":\"send\",\"rank\":2000000000}\n")) // over MaxTraceRanks
	f.Add([]byte("not json\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		s := NewStore()
		s.maxIngest = limit
		code := ingest(Handler(s, nil), body)
		switch code {
		case http.StatusOK:
			if len(body) > limit {
				t.Fatalf("accepted a %d-byte body over the %d-byte bound", len(body), limit)
			}
			s.Analyze(nil)
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if n := s.NumSpans(); n != 0 {
				t.Fatalf("status %d but %d spans stored", code, n)
			}
		default:
			t.Fatalf("status %d", code)
		}
	})
}
