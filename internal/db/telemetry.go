package db

import (
	"fmt"

	"unixhash/internal/core"
	"unixhash/internal/oplog"
	"unixhash/internal/telemetry"
	"unixhash/internal/trace"
)

// ServeTelemetry starts a telemetry HTTP server over an open database
// (see internal/telemetry for the endpoint list): the one starter for
// every db.DB. Every DB serves /stats from db.Stats; a single table
// additionally mounts its metrics registry (/metrics), tracer
// ring (/debug/events) and bucket heatmap (/debug/heatmap). A sharded
// database mounts the shared registry every shard aggregates into, the
// ring the shards and the log share, a per-shard heatmap array, and a
// /stats document whose "Shards" member breaks the aggregate down — one
// ops dashboard for the whole fleet of shards (dbserver points its
// -telemetry flag here). rec, when non-nil, is the recorder the caller's
// ledgers are folded into (server.Options.Oplog): it backs /debug/oplog
// and /debug/oplog/exemplars. addr ":0" picks a free port — read it back
// with the server's Addr. The caller owns the returned server and must
// Close it before closing the database.
func ServeTelemetry(d DB, addr string, rec *oplog.Recorder) (*telemetry.Server, error) {
	o := telemetry.Options{
		Stats: func() (any, error) {
			s, err := d.Stats()
			if err != nil {
				return nil, err
			}
			return s, nil
		},
	}
	switch x := d.(type) {
	case *hashDB:
		o.Registry = x.MetricsRegistry()
		o.Ring = x.Tracer().Ring()
		o.Heatmap = func() (any, error) { return Heatmap(d) }
	case *Sharded:
		o.Registry = x.reg
		o.Ring = x.tr
		o.Heatmap = func() (any, error) { return shardedHeatmap(x) }
	}
	if rec != nil {
		ring := o.Ring
		o.Oplog = func() (any, error) { return rec.Snapshot(), nil }
		o.OplogExemplars = func() (any, error) { return exemplarsWithEvents(rec, ring), nil }
	}
	return telemetry.Serve(addr, o)
}

// exemplarEvents is one exemplar with the ring events emitted inside its
// trace span inlined: the request's phases and what the engine did
// during it (splits, overflow allocation, log fsyncs) in one record.
type exemplarEvents struct {
	oplog.ExemplarView
	Events []trace.Event `json:"events,omitempty"`
}

// exemplarsWithEvents joins rec's exemplars to ring at scrape time. An
// exemplar whose span the ring has since overwritten, or any exemplar
// when ring is nil, carries no events.
func exemplarsWithEvents(rec *oplog.Recorder, ring *trace.Ring) []exemplarEvents {
	exs := rec.Exemplars()
	out := make([]exemplarEvents, len(exs))
	for i, ex := range exs {
		out[i].ExemplarView = ex
		out[i].Events = ring.Range(ex.TraceSeq0, ex.TraceSeq1)
	}
	return out
}

// shardHeat is one shard's slice of the sharded heatmap document.
type shardHeat struct {
	Shard   int           `json:"shard"`
	Heatmap *core.Heatmap `json:"heatmap"`
}

// shardedHeatmap walks every shard's buckets; each shard takes its own
// table lock shared, so the walk runs against live traffic just like
// the single-table endpoint.
func shardedHeatmap(s *Sharded) (any, error) {
	out := make([]shardHeat, 0, len(s.shards))
	for i, sh := range s.shards {
		hm, err := sh.Heatmap()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		out = append(out, shardHeat{Shard: i, Heatmap: hm})
	}
	return out, nil
}
