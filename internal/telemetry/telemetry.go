// Package telemetry is the hashing package's live observation surface:
// an opt-in HTTP server that exposes the metrics registry in Prometheus
// text format, a JSON stats view, the trace ring, the op-ledger summary
// and its exemplars, a per-bucket heatmap, and net/http/pprof —
// everything needed to watch and debug a table under load without
// stopping it.
//
// The package is deliberately generic: it serves closures and interfaces
// (a *metrics.Registry, a *trace.Tracer, stats/heatmap functions), so a
// caller holding a bare core table and the db layer (db.ServeTelemetry,
// what dbserver and dbcli -telemetry use) mount their own views through
// the one starter, Serve. The storage engine
// itself never opens a socket. Handlers only ever read — a scrape never
// takes the table's write lock: /stats (db.Stats) and /debug/heatmap run
// core.Table.Heatmap under the shared lock, one bucket latch at a time,
// faulting chain pages through the pool but blocking no reader or
// writer — and every endpoint is safe to hit while a workload runs.
//
// Endpoints:
//
//	/                      index of everything below
//	/metrics               Prometheus text exposition (metrics.WriteProm)
//	/stats                 JSON statistics snapshot
//	/debug/events          recent trace ring contents; ?type=NAME (repeatable)
//	                       filters by event type, ?n=N caps the count
//	/debug/heatmap         per-bucket fill factor and chain depth
//	/debug/oplog           per-command, per-shard phase-latency summary
//	/debug/oplog/exemplars slowest request ledgers per command per window,
//	                       each with the ring events of its span inlined
//	/debug/pprof/...       the standard runtime profiles
package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"unixhash/internal/metrics"
	"unixhash/internal/trace"
)

// Options selects what a telemetry handler serves. Nil fields disable
// their endpoint (it answers 404 with an explanatory body).
type Options struct {
	// Registry backs /metrics.
	Registry *metrics.Registry
	// Tracer backs /debug/events. With a Registry as well, the ring's
	// drop count joins it as trace_events_dropped_total.
	Tracer *trace.Tracer
	// Stats computes the /stats JSON payload per request.
	Stats func() (any, error)
	// Heatmap computes the /debug/heatmap JSON payload per request.
	Heatmap func() (any, error)
	// Oplog computes the /debug/oplog JSON payload (per-command,
	// per-shard phase-latency summary) per request.
	Oplog func() (any, error)
	// OplogExemplars computes the /debug/oplog/exemplars JSON payload
	// (slowest full ledgers per command per window) per request.
	OplogExemplars func() (any, error)
}

// NewHandler builds the telemetry endpoint tree.
func NewHandler(o Options) http.Handler {
	mux := http.NewServeMux()
	if o.Registry != nil && o.Tracer != nil {
		o.Registry.CounterFunc("trace_events_dropped_total", func() int64 { return int64(o.Tracer.Ring().Dropped()) })
		o.Registry.Help("trace_events_dropped_total", "Trace events given a sequence number but not stored (writer lapped mid-publish)")
	}

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "unixhash telemetry\n\n"+
			"/metrics          Prometheus text format\n"+
			"/stats            JSON statistics\n"+
			"/debug/events     trace ring (?type=NAME&n=N)\n"+
			"/debug/heatmap    per-bucket fill and chain depth\n"+
			"/debug/oplog      per-command phase-latency summary\n"+
			"/debug/oplog/exemplars  slowest request ledgers per window\n"+
			"/debug/pprof/     runtime profiles\n")
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if o.Registry == nil {
			http.Error(w, "no metrics registry attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := o.Registry.WriteProm(w); err != nil {
			// Headers are gone; all we can do is cut the response short.
			return
		}
	})

	mux.HandleFunc("/stats", jsonEndpoint(o.Stats, "no stats source attached"))
	mux.HandleFunc("/debug/heatmap", jsonEndpoint(o.Heatmap, "no heatmap source attached"))
	mux.HandleFunc("/debug/oplog", jsonEndpoint(o.Oplog, "no op ledger recorder attached"))
	mux.HandleFunc("/debug/oplog/exemplars", jsonEndpoint(o.OplogExemplars, "no op ledger recorder attached"))

	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		if o.Tracer == nil {
			http.Error(w, "no tracer attached", http.StatusNotFound)
			return
		}
		q := r.URL.Query()
		max := 0
		if s := q.Get("n"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, "bad n: "+s, http.StatusBadRequest)
				return
			}
			max = n
		}
		var types []trace.Type
		for _, name := range q["type"] {
			ty := trace.ParseType(name)
			if ty == trace.EvNone {
				http.Error(w, "unknown event type: "+name, http.StatusBadRequest)
				return
			}
			types = append(types, ty)
		}
		evs := o.Tracer.Events(max, types...)
		writeJSON(w, struct {
			NextSeq uint64        `json:"next_seq"`
			Dropped uint64        `json:"dropped"`
			Count   int           `json:"count"`
			Events  []trace.Event `json:"events"`
		}{o.Tracer.Ring().Next(), o.Tracer.Ring().Dropped(), len(evs), evs})
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// jsonEndpoint adapts a payload closure into a JSON GET handler.
func jsonEndpoint(src func() (any, error), missing string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if src == nil {
			http.Error(w, missing, http.StatusNotFound)
			return
		}
		v, err := src()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, v)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Server is a running telemetry listener.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	once sync.Once

	mu  sync.Mutex
	err error // Serve's exit error, if any
}

// Serve starts a telemetry server on addr (host:port; ":0" picks a free
// port — read the choice back with Addr). It returns once the listener
// is accepting.
func Serve(addr string, o Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{
		Handler:           NewHandler(o),
		ReadHeaderTimeout: 10 * time.Second,
	}}
	go func() {
		err := s.srv.Serve(ln)
		if err != nil && err != http.ErrServerClosed {
			s.mu.Lock()
			s.err = err
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// Addr reports the server's actual listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL reports the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the listener and closes open connections immediately. It
// does not wait for in-flight handlers — the sources being served may
// be shutting down behind locks those handlers are queued on. Safe to
// call more than once.
func (s *Server) Close() error {
	var err error
	s.once.Do(func() { err = s.srv.Close() })
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
