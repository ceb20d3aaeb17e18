package metrics

import (
	"bufio"
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestWritePromConformance walks the text dump line by line and enforces
// the Prometheus text exposition format: every series preceded by HELP
// and TYPE lines, valid metric names, histogram buckets cumulative and
// terminated by le="+Inf" with _sum/_count following, and no series
// emitted twice.
func TestWritePromConformance(t *testing.T) {
	r := New()
	r.Counter("hash_gets_total").Add(7)
	r.Gauge("hash_keys").Set(42)
	r.CounterFunc("buffer_hits_total", func() int64 { return 3 })
	r.GaugeFunc("buffer_resident", func() int64 { return 9 })
	r.Help("hash_gets_total", "successful Get calls")
	// The two drop counters, registered the way telemetry.NewHandler and
	// oplog.NewRecorder do: a CounterFunc, then its HELP.
	r.CounterFunc("trace_events_dropped_total", func() int64 { return 2 })
	r.Help("trace_events_dropped_total", "Trace events given a sequence number but not stored")
	r.CounterFunc("oplog_ledgers_dropped_total", func() int64 { return 1 })
	r.Help("oplog_ledgers_dropped_total", "Ledgers recorded with an out-of-range shard")
	h := r.Histogram("pagefile_read_seconds")
	h.Observe(3 * time.Microsecond)
	h.Observe(900 * time.Microsecond)
	h.Observe(20 * time.Second)          // lands in the +Inf overflow bucket
	r.Histogram("pagefile_sync_seconds") // empty histogram must still be valid
	// HELP before the registration, the way server.Serve and core's
	// filter group set it: the text must stick to the later series.
	r.Help("server_cmds_total", "Commands executed")
	r.Counter("server_cmds_total").Inc()

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	checkPromText(t, buf.String())

	// Spot-check the curated help text survived.
	for _, want := range []string{
		"# HELP hash_gets_total successful Get calls\n",
		"# HELP trace_events_dropped_total Trace events given a sequence number but not stored\n# TYPE trace_events_dropped_total counter\ntrace_events_dropped_total 2\n",
		"# HELP oplog_ledgers_dropped_total Ledgers recorded with an out-of-range shard\n# TYPE oplog_ledgers_dropped_total counter\noplog_ledgers_dropped_total 1\n",
		"# HELP server_cmds_total Commands executed\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q in:\n%s", want, buf.String())
		}
	}
}

var (
	promName   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="([^"]*)"\})? (\S+)$`)
)

// checkPromText is a strict structural validator for the subset of the
// exposition format the registry emits.
func checkPromText(t *testing.T, text string) {
	t.Helper()
	type series struct {
		typ     string
		hasHelp bool
		samples int
		buckets []struct {
			le  float64
			cum int64
		}
		sawInf, sawSum, sawCount bool
	}
	all := make(map[string]*series)
	var curName string

	base := func(name string) (string, string) {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			b := strings.TrimSuffix(name, suf)
			if b != name {
				if s, ok := all[b]; ok && s.typ == "histogram" {
					return b, suf
				}
			}
		}
		return name, ""
	}

	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("HELP line without text: %q", line)
			}
			if !promName.MatchString(name) {
				t.Fatalf("invalid metric name in HELP: %q", line)
			}
			if _, dup := all[name]; dup {
				t.Fatalf("duplicate HELP/series for %s", name)
			}
			all[name] = &series{hasHelp: true}
			curName = name
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			name, typ := fields[0], fields[1]
			s, ok := all[name]
			if !ok || !s.hasHelp {
				t.Fatalf("TYPE for %s not preceded by HELP", name)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown TYPE %q for %s", typ, name)
			}
			s.typ = typ
			curName = name
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line: %q", line)
		}

		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		name, leLabel, leVal, valStr := m[1], m[2], m[3], m[4]
		b, suf := base(name)
		s, ok := all[b]
		if !ok || s.typ == "" {
			t.Fatalf("sample %q precedes its HELP/TYPE lines", line)
		}
		if b != curName {
			t.Fatalf("sample %q interleaved into series %s", line, curName)
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}

		switch s.typ {
		case "counter", "gauge":
			if suf != "" || leLabel != "" {
				t.Fatalf("%s sample with histogram shape: %q", s.typ, line)
			}
			s.samples++
			if s.samples > 1 {
				t.Fatalf("duplicate sample for %s", name)
			}
		case "histogram":
			switch suf {
			case "_bucket":
				if leLabel == "" {
					t.Fatalf("bucket without le label: %q", line)
				}
				if s.sawInf {
					t.Fatalf("bucket after +Inf: %q", line)
				}
				le := float64(0)
				if leVal == "+Inf" {
					s.sawInf = true
				} else if le, err = strconv.ParseFloat(leVal, 64); err != nil {
					t.Fatalf("unparseable le in %q: %v", line, err)
				}
				if n := len(s.buckets); n > 0 {
					prev := s.buckets[n-1]
					if !s.sawInf && le <= prev.le {
						t.Fatalf("bucket bounds not increasing at %q", line)
					}
					if int64(val) < prev.cum {
						t.Fatalf("buckets not cumulative at %q (prev %d)", line, prev.cum)
					}
				}
				s.buckets = append(s.buckets, struct {
					le  float64
					cum int64
				}{le, int64(val)})
			case "_sum":
				if s.sawSum {
					t.Fatalf("duplicate _sum for %s", b)
				}
				s.sawSum = true
			case "_count":
				if s.sawCount {
					t.Fatalf("duplicate _count for %s", b)
				}
				s.sawCount = true
				if n := len(s.buckets); n == 0 || s.buckets[n-1].cum != int64(val) {
					t.Fatalf("%s_count %v != +Inf bucket", b, val)
				}
			default:
				t.Fatalf("bare sample %q for histogram %s", line, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for name, s := range all {
		if s.typ == "" {
			t.Errorf("series %s has HELP but no TYPE", name)
		}
		if s.typ == "histogram" {
			if !s.sawInf {
				t.Errorf("histogram %s has no +Inf bucket", name)
			}
			if !s.sawSum || !s.sawCount {
				t.Errorf("histogram %s missing _sum/_count", name)
			}
		}
	}
}

func TestHelpEscaping(t *testing.T) {
	r := New()
	r.Counter("weird_total")
	r.Help("weird_total", "line one\nline \\ two")
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP weird_total line one\nline \\ two` + "\n"
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaped help missing; got:\n%s", buf.String())
	}
}
