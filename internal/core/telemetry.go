package core

import (
	"unixhash/internal/metrics"
	"unixhash/internal/trace"
)

// What a table hands the telemetry surface. The table opens no socket of
// its own: a caller holding it starts the surface (telemetry.Serve for a
// bare table, db.ServeTelemetry for a database) over these sources,
// which only ever take the shared lock, so scrapes run in parallel with
// readers and queue briefly behind writers.

// StatsDoc is the /stats document for a bare table: its geometry plus a
// full metrics snapshot.
type StatsDoc struct {
	Method   string           `json:"method"`
	Geometry Geometry         `json:"geometry"`
	Metrics  metrics.Snapshot `json:"metrics"`
}

// StatsDoc assembles the /stats document from Geometry() (shared lock)
// and the registry (lock-free), so polling it is cheap — the walking
// views live under Heatmap. A closed table returns ErrClosed.
func (t *Table) StatsDoc() (StatsDoc, error) {
	snap, err := t.MetricsSnapshot()
	if err != nil {
		return StatsDoc{}, err
	}
	return StatsDoc{Method: "hash", Geometry: t.Geometry(), Metrics: snap}, nil
}

// Tracer exposes the tracer the table was opened with (nil when tracing
// is disabled).
func (t *Table) Tracer() *trace.Tracer { return t.tr }
