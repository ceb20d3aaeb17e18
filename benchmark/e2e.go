package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one named number of a run. A metric the run could not
// measure carries the reason instead of a value, and is never a pass.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int    // latency metrics: how many samples stand behind it
	absent  string // non-empty: no value, and why ("not_measured: ...", "no such op")
}

// result is one workload's run, end to end or traced.
type result struct {
	workload  string
	traced    bool
	metrics   []metric
	attempted int
	failed    int
	errs      []string
	ops       int
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// addLatency adds name_p50_us and name_p99_us from l: absent when the
// workload issues no such op, p99 absent when fewer than ten samples lie
// beyond it.
func (r *result) addLatency(name string, l latency) {
	p50 := metric{name: name + "_p50_us", unit: "us", value: l.p50us, samples: l.n}
	p99 := metric{name: name + "_p99_us", unit: "us", value: l.p99us, samples: l.n}
	switch {
	case l.n == 0:
		p50.absent, p99.absent = "no such op", "no such op"
	case !l.hasP99:
		p99.absent = "not_measured: fewer than ten samples beyond p99"
	}
	r.metrics = append(r.metrics, p50, p99)
}

// notMeasured marks every metric named (all of them when names is
// empty) as not measured for reason.
func (r *result) notMeasured(reason string, names ...string) {
	for i := range r.metrics {
		m := &r.metrics[i]
		if m.absent != "" {
			continue
		}
		hit := len(names) == 0
		for _, n := range names {
			hit = hit || m.name == n
		}
		if hit {
			m.absent = "not_measured: " + reason
		}
	}
}

// nSetups is how many times a run sets up (server start + preload); the
// median is reported as setup_s and the last one is measured on.
const nSetups = 5

// env is what a run needs from the command line.
type env struct {
	workdir   string
	serverBin string
	seed      uint64
	seconds   int
	keys      int // keys preloaded before the measured phase
	calibrate bool
	runs      int // directories handed out so far
}

func (e *env) freshDir() string {
	e.runs++
	return filepath.Join(e.workdir, fmt.Sprintf("data-%d-%d", os.Getpid(), e.runs))
}

// setup starts a server on a fresh directory and preloads it.
func (e *env) setup(sp *spec) (*serverProc, string, time.Duration, error) {
	dir := e.freshDir()
	st := time.Now()
	p, err := startServer(e.serverBin, dir, sp.cache)
	if err != nil {
		return nil, dir, 0, err
	}
	if err := preload(p.addr, e.seed, e.keys); err != nil {
		p.kill()
		return nil, dir, 0, fmt.Errorf("preload: %w", err)
	}
	return p, dir, time.Since(st), nil
}

// runE2E measures sp against a dbserver subprocess on real files:
// set-up, the measured phase, graceful stop, space accounting, restart
// and verification.
func (e *env) runE2E(sp *spec) (*result, error) {
	res := &result{workload: sp.name, ops: sp.opsPerSecond * e.seconds}

	var setups []float64
	var p *serverProc
	var dir string
	for i := 0; i < nSetups; i++ {
		if p != nil {
			p.kill()
			os.RemoveAll(dir)
		}
		var took time.Duration
		var err error
		if p, dir, took, err = e.setup(sp); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer os.RemoveAll(dir)
	sort.Float64s(setups)
	if err := syncFiles(dir); err != nil {
		p.kill()
		return nil, err
	}

	// The op count is fixed, so a slower host or commit takes longer;
	// the measured phase is cut at three times its nominal length so that
	// a run always ends. A cut run attempted fewer ops and says so.
	limit := 3 * time.Duration(e.seconds) * time.Second
	if e.calibrate {
		limit = time.Duration(e.seconds) * time.Second
		res.ops = 1 << 40
	}
	run, err := drive(p.addr, sp, e.seed, e.keys, res.ops, limit, p.cpuTime, nil)
	if err != nil {
		p.kill()
		return nil, err
	}
	res.attempted, res.failed, res.errs = run.attempted, run.failed, run.errs
	done := run.attempted - run.failed

	drain, rss, err := p.stop()
	if err != nil {
		res.failed++
		res.errs = append(res.errs, err.Error())
	}
	allocated, apparent, err := diskUsage(dir)
	if err != nil {
		return nil, err
	}
	live := 0
	for _, g := range run.gens {
		live += g.live
	}

	// Restart on the same directory and hold the server to the model.
	st := time.Now()
	p2, err := startServer(e.serverBin, dir, sp.cache)
	reopen := time.Since(st)
	if err != nil {
		res.failed++
		res.errs = append(res.errs, "restart: "+err.Error())
	} else {
		checked, wrong, why, verr := verifyAfterRestart(p2.addr, run.gens, e.seed)
		res.attempted += checked
		res.failed += wrong
		if why != "" {
			res.errs = append(res.errs, why)
		}
		if verr != nil {
			res.failed++
			res.errs = append(res.errs, "verify after restart: "+verr.Error())
		}
		if _, _, err := p2.stop(); err != nil {
			res.failed++
			res.errs = append(res.errs, "second stop: "+err.Error())
		}
	}

	res.add("setup_s", "s", setups[len(setups)/2])
	res.add("ops_per_s", "1/s", run.opsPerSec)
	res.add("op_p50_us", "us", run.all.p50us)
	res.add("op_p99_us", "us", run.p99us)
	res.addLatency("get", run.lat[classGet])
	res.addLatency("put", run.lat[classPut])
	res.addLatency("txn", run.lat[classTxn])
	res.add("cpu_us_per_op", "us", run.cpuPerOp/1e3)
	res.add("rss_peak_mb", "MB", float64(rss)/(1<<20))
	res.add("space_amp", "ratio", float64(allocated)/float64(max(live, 1)*(keyLen+valueLen)))
	res.add("error_rate", "ratio", float64(res.failed)/float64(max(res.attempted, 1)))
	// Not bounded, printed for context.
	res.add("process.drain_s", "s", drain.Seconds())
	res.add("process.reopen_s", "s", reopen.Seconds())
	res.add("pagefile.apparent_bytes", "B", float64(apparent))
	res.add("elapsed_s", "s", run.elapsed.Seconds())
	if !e.calibrate && run.attempted < res.ops {
		res.errs = append(res.errs, fmt.Sprintf("measured phase cut at %v after %d of %d ops: results are not comparable with a full run", limit, run.attempted, res.ops))
	}
	if sp.open {
		res.addLatency("loadgen.late", run.late)
		achieved := float64(done) / run.elapsed.Seconds() / float64(sp.opsPerSecond)
		res.add("loadgen.achieved_over_offered", "ratio", achieved)
		if achieved < 0.99 {
			res.notMeasured(fmt.Sprintf("open-loop generator achieved %.3f of the offered rate", achieved),
				"ops_per_s", "op_p50_us", "op_p99_us", "get_p50_us", "get_p99_us", "put_p50_us", "put_p99_us", "cpu_us_per_op")
		}
	}
	return res, nil
}
