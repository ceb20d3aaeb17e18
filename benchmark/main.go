// Command benchmark is the repository's real-path benchmark: it builds
// cmd/dbserver, runs it as a subprocess on real files with real fsync,
// and drives it over loopback TCP with five named workloads, checking
// every reply against a model. With -trace it replays the same op
// stream against an in-process stack assembled from the layers' public
// seams, with spans recorded at each boundary, and probes each layer's
// public functions. See README.md.
//
//	go run ./benchmark -workload <name|all> -seed N [-seconds S] [-trace] [-repeat K]
//
// Run it from the module root. With one workload, the last line of
// standard output is the result object BENCHMARK.json describes; the
// readable report goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Uint64("seed", 1, "seed of the generated op stream")
	seconds := fs.Int("seconds", defaultSeconds(), "sizes a run: each workload issues its frozen ops-per-second budget times this")
	trace := fs.Bool("trace", false, "traced in-process run and layer probes instead of the end-to-end run")
	repeat := fs.Int("repeat", 1, "run this many full sets and print the spread of every metric")
	workdir := fs.String("workdir", ".bench_build", "directory for the server binary, database directories and span files")
	calibrate := fs.Bool("calibrate", false, "closed loop for -seconds instead of a fixed op count; prints the rates the op budgets are frozen from")
	if err := fs.Parse(fixTraceArg(args)); err != nil {
		return 2
	}
	var todo []spec
	if *workload == "all" {
		todo = specs
	} else if sp, ok := specByName(*workload); ok {
		todo = []spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds < 1 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -repeat must be at least 1")
		return 2
	}

	if err := os.MkdirAll(filepath.Join(*workdir, "bin"), 0o777); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	e := &env{workdir: *workdir, seed: *seed, seconds: *seconds, keys: preloadKeys, calibrate: *calibrate}
	prov := provenance(e)
	if !*trace {
		bin, err := buildServer(*workdir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		e.serverBin = bin
	}

	var sets [][]*result
	for k := 0; k < *repeat; k++ {
		var set []*result
		for i := range todo {
			sp := &todo[i]
			if *calibrate {
				closed := *sp
				closed.open = false
				sp = &closed
			}
			var res *result
			var err error
			if *trace {
				res, err = e.runTraced(sp)
			} else {
				res, err = e.runE2E(sp)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
				return 1
			}
			applyHostLimits(res, prov)
			printResult(os.Stderr, res)
			set = append(set, res)
		}
		sets = append(sets, set)
	}
	if *repeat > 1 {
		printSpread(os.Stderr, sets, loadBounds())
	}

	failed := 0
	for _, set := range sets {
		for _, r := range set {
			failed += r.failed
		}
	}
	last := sets[len(sets)-1]
	if len(todo) == 1 {
		fmt.Println(contractLine(last[0]))
	} else {
		fmt.Println(summaryJSON(prov, last))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d operations failed or disagreed with the model\n", failed)
		return 1
	}
	return 0
}

// fixTraceArg lets the boolean -trace also be given as "--trace 0" and
// "--trace 1", the form the benchmark driver uses.
func fixTraceArg(args []string) []string {
	out := append([]string(nil), args...)
	for i := 0; i+1 < len(out); i++ {
		if out[i] == "-trace" || out[i] == "--trace" {
			switch out[i+1] {
			case "0", "1", "true", "false":
				out[i] += "=" + out[i+1]
				out = append(out[:i+1], out[i+2:]...)
			}
		}
	}
	return out
}

// benchmarkFile is the part of BENCHMARK.json the program reads: the
// run length and the bound on each end-to-end metric.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string
		Bound float64
	} `json:"end_to_end"`
}

func readBenchmarkFile() benchmarkFile {
	var bf benchmarkFile
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		_ = json.Unmarshal(raw, &bf) // unreadable: no bounds to print, default length
	}
	return bf
}

func defaultSeconds() int {
	if s := readBenchmarkFile().RunSeconds; s > 0 {
		return s
	}
	return 10
}

func loadBounds() map[string]float64 {
	b := map[string]float64{}
	for _, m := range readBenchmarkFile().EndToEnd {
		b[m.Name] = m.Bound
	}
	return b
}

// prov is where a result came from. Every result carries it.
type prov struct {
	Commit      string   `json:"commit"`
	Seed        uint64   `json:"seed"`
	Seconds     int      `json:"seconds"`
	ServerFlags []string `json:"server_flags"`
	Nproc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	GoVersion   string   `json:"go_version"`
	Kernel      string   `json:"kernel"`
	WorkdirFS   string   `json:"workdir_fs"`
	Connections int      `json:"connections"`
	PreloadKeys int      `json:"preload_keys"`
}

func provenance(e *env) prov {
	p := prov{
		Commit: "unknown", Seed: e.seed, Seconds: e.seconds, ServerFlags: serverFlags,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", WorkdirFS: fsType(e.workdir), Connections: nConns, PreloadKeys: e.keys,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(raw))
	}
	return p
}

// applyHostLimits turns numbers the host cannot support into
// "not measured": fewer CPUs than connections means client and server
// time-share one core; tmpfs means no page ever reaches a device and
// fsync is free.
func applyHostLimits(r *result, p prov) {
	if p.Nproc < nConns {
		r.notMeasured(fmt.Sprintf("nproc %d is below the %d connections the workloads use", p.Nproc, nConns))
	}
	if p.WorkdirFS == "tmpfs" {
		r.notMeasured("the database directory is on tmpfs: no real file I/O or fsync")
	}
}
