package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// contractE2E names, in order, the end-to-end metrics BENCHMARK.json
// lists: the ones every workload reports as a non-zero number and that
// repeat from run to run within a bound (README.md, "Bounds"). The
// per-class latencies (get/put/txn) are absent on workloads that issue
// no such op, error_rate is zero on a healthy run and travels as
// failed/attempted, and p99 did not repeat; all are still printed.
var contractE2E = []string{"setup_s", "ops_per_s", "op_p50_us", "cpu_us_per_op", "rss_peak_mb", "space_amp"}

// printResult writes every metric of r by name, with its unit.
func printResult(w io.Writer, r *result) {
	kind := "end-to-end (dbserver subprocess, untraced)"
	if r.traced {
		kind = "per-layer (in-process, traced + probes)"
	}
	fmt.Fprintf(w, "\n== %s · %s · %d ops ==\n", r.workload, kind, r.ops)
	for _, m := range r.metrics {
		switch {
		case m.absent != "":
			fmt.Fprintf(w, "  %-38s %14s        %s\n", m.name, "-", m.absent)
		case m.samples > 0:
			fmt.Fprintf(w, "  %-38s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
		default:
			fmt.Fprintf(w, "  %-38s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
	fmt.Fprintf(w, "  %-38s %14d of %d\n", "failed", r.failed, r.attempted)
	for _, e := range r.errs {
		fmt.Fprintf(w, "  ! %s\n", e)
	}
}

// printSpread prints, per workload and metric over the repeated sets,
// the median, quartiles and both spreads beside the metric's bound.
func printSpread(w io.Writer, sets [][]*result, bounds map[string]float64) {
	fmt.Fprintf(w, "\n== spread over %d sets: median [q1, q3]  iqr/median  (max-min)/median  bound ==\n", len(sets))
	for wi, first := range sets[0] {
		fmt.Fprintf(w, "%s\n", first.workload)
		for mi, m := range first.metrics {
			var vals []float64
			for _, set := range sets {
				if mm := set[wi].metrics[mi]; mm.absent == "" {
					vals = append(vals, mm.value)
				}
			}
			if len(vals) < len(sets) {
				continue
			}
			s := spreadOf(vals)
			bound := "      -"
			if b, ok := bounds[m.name]; ok {
				bound = fmt.Sprintf("%6.1f%%", 100*b)
				if s.iqrOverMedian > b {
					bound += "  SPREAD EXCEEDS BOUND"
				}
			}
			fmt.Fprintf(w, "  %-38s %14.4f [%.4f, %.4f] %-6s %6.2f%% %6.2f%% %s\n",
				m.name, s.median, s.q1, s.q3, m.unit, 100*s.iqrOverMedian, 100*s.rangeOverMedian, bound)
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the one-line result object for a single-workload run:
// the end-to-end metrics of BENCHMARK.json, or with -trace every
// per-layer metric. Values are the numbers as measured; what the host
// could not support is flagged in the report above, not here.
func contractLine(r *result) string {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, map[string]jsonMetric{}}
	if r.traced {
		for _, m := range r.metrics {
			out.Metrics[m.name] = jsonMetric{m.value, m.unit}
		}
	} else {
		for _, name := range contractE2E {
			m, _ := r.get(name)
			out.Metrics[name] = jsonMetric{m.value, m.unit}
		}
	}
	b, _ := json.Marshal(out) // plain numbers and strings cannot fail to marshal
	return string(b)
}

// summaryJSON is the multi-workload summary: provenance, then every
// metric of every workload (null where the workload issues no such op,
// not_measured with its reason where the host could not support it).
// It claims nothing about any change, and says so last.
func summaryJSON(p prov, set []*result) string {
	type wl struct {
		Name        string         `json:"name"`
		Ops         int            `json:"ops"`
		OfferedRate *int           `json:"offered_rate_per_s"`
		ServerCache int            `json:"server_cache_flag"`
		Attempted   int            `json:"attempted"`
		Failed      int            `json:"failed"`
		Errors      []string       `json:"errors,omitempty"`
		Metrics     map[string]any `json:"metrics"`
	}
	out := struct {
		Provenance prov    `json:"provenance"`
		Workloads  []wl    `json:"workloads"`
		Claim      *string `json:"claim"`
	}{Provenance: p}
	for _, r := range set {
		sp, _ := specByName(r.workload)
		w := wl{Name: r.workload, Ops: r.ops, ServerCache: sp.cache, Attempted: r.attempted, Failed: r.failed, Errors: r.errs, Metrics: map[string]any{}}
		if sp.open {
			w.OfferedRate = &sp.opsPerSecond
		}
		for _, m := range r.metrics {
			switch {
			case m.absent == "no such op":
				w.Metrics[m.name] = nil
			case m.absent != "":
				w.Metrics[m.name] = map[string]string{"not_measured": strings.TrimPrefix(m.absent, "not_measured: ")}
			case m.samples > 0:
				w.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit, "samples": m.samples}
			default:
				w.Metrics[m.name] = jsonMetric{m.value, m.unit}
			}
		}
		out.Workloads = append(out.Workloads, w)
	}
	b, _ := json.MarshalIndent(out, "", " ")
	return string(b)
}
