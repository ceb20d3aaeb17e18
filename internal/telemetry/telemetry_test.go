package telemetry

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"unixhash/internal/metrics"
	"unixhash/internal/trace"
)

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, string(body)
}

// TestHandlerFull exercises every endpoint with all sources attached.
func TestHandlerFull(t *testing.T) {
	reg := metrics.New()
	reg.Counter("test_ops_total").Add(3)
	tr := trace.New(64)
	tr.Emit(trace.EvSplitBegin, 1, 2, 3, 0)
	tr.Emit(trace.EvSyncBegin, 7, 0, 0, 0)
	h := NewHandler(Options{
		Registry: reg,
		Tracer:   tr,
		Stats:    func() (any, error) { return map[string]int{"keys": 42}, nil },
		Heatmap:  func() (any, error) { return map[string]int{"buckets": 4}, nil },
	})

	if code, body := get(t, h, "/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %d %q", code, body)
	}
	if code, body := get(t, h, "/metrics"); code != 200 || !strings.Contains(body, "test_ops_total 3") ||
		!strings.Contains(body, "# HELP trace_events_dropped_total Trace events given") ||
		!strings.Contains(body, "# TYPE trace_events_dropped_total counter\ntrace_events_dropped_total 0\n") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if code, body := get(t, h, "/stats"); code != 200 || !strings.Contains(body, `"keys": 42`) {
		t.Fatalf("/stats: %d %q", code, body)
	}
	if code, body := get(t, h, "/debug/heatmap"); code != 200 || !strings.Contains(body, `"buckets": 4`) {
		t.Fatalf("/debug/heatmap: %d %q", code, body)
	}

	code, body := get(t, h, "/debug/events")
	if code != 200 {
		t.Fatalf("/debug/events: %d %q", code, body)
	}
	var evs struct {
		NextSeq uint64            `json:"next_seq"`
		Count   int               `json:"count"`
		Events  []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("/debug/events not JSON: %v", err)
	}
	if evs.Count != 2 || evs.NextSeq != 2 {
		t.Fatalf("/debug/events: count=%d next=%d, want 2/2", evs.Count, evs.NextSeq)
	}

	// Filter: only the sync event.
	if code, body := get(t, h, "/debug/events?type=sync-begin"); code != 200 || strings.Contains(body, "split-begin") {
		t.Fatalf("filtered events leaked other types: %d %q", code, body)
	}
	if code, _ := get(t, h, "/debug/events?type=bogus"); code != http.StatusBadRequest {
		t.Fatalf("unknown type filter: %d, want 400", code)
	}
	if code, _ := get(t, h, "/debug/events?n=abc"); code != http.StatusBadRequest {
		t.Fatalf("bad n: %d, want 400", code)
	}
	if code, _ := get(t, h, "/debug/slowops"); code != http.StatusNotFound {
		t.Fatalf("/debug/slowops: %d, want 404 (the op ledger's exemplars replaced it)", code)
	}
	if _, body := get(t, h, "/"); strings.Contains(body, "slowops") {
		t.Fatalf("index still lists /debug/slowops:\n%s", body)
	}
	if code, _ := get(t, h, "/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: %d", code)
	}
	if code, _ := get(t, h, "/no/such/path"); code != http.StatusNotFound {
		t.Fatalf("unknown path: %d, want 404", code)
	}
}

// TestHandlerEmpty: every optional source missing answers 404 with an
// explanatory body, never a panic or a 500.
func TestHandlerEmpty(t *testing.T) {
	h := NewHandler(Options{})
	for _, path := range []string{"/metrics", "/stats", "/debug/events", "/debug/slowops", "/debug/heatmap"} {
		code, body := get(t, h, path)
		if code != http.StatusNotFound || body == "" {
			t.Fatalf("%s with no source: %d %q, want 404 with body", path, code, body)
		}
	}
}

// TestHandlerStatsError: a failing stats source is a 500 carrying the
// error text.
func TestHandlerStatsError(t *testing.T) {
	h := NewHandler(Options{Stats: func() (any, error) { return nil, errors.New("table closed") }})
	code, body := get(t, h, "/stats")
	if code != http.StatusInternalServerError || !strings.Contains(body, "table closed") {
		t.Fatalf("/stats error: %d %q", code, body)
	}
}

// TestServeLifecycle: Serve listens on a real port, answers, and stops
// answering after Close; double Close is safe.
func TestServeLifecycle(t *testing.T) {
	s, err := Serve("127.0.0.1:0", Options{Stats: func() (any, error) { return "ok", nil }})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(s.URL() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("live /stats: %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := http.Get(s.URL() + "/stats"); err == nil {
		t.Fatal("server still answering after Close")
	}
}
