// Command castlebench is Castle's benchmark. It runs one named workload
// for a fixed time, checks every answer, and prints its metrics as one JSON
// object on the last line of standard output:
//
//	castlebench --workload ssb-cape --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs a separately
// traced measurement and prints the per-layer metrics instead, writing
// every span to .bench_build/traces/. See README.md for the metric
// definitions and why each workload exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of Castle sees; every workload reports
// all of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"queries_per_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"within_limit_ratio", "fraction"},
	{"sim_cycles_geomean", "cycles"},
	{"sim_speedup_geomean", "x"},
	{"alloc_mb_per_query", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced run's metrics. A layer a workload never calls
// reports 0.
var perLayer = []metricDef{
	{"cape.host_ns_per_vinstr", "ns"},
	{"cape.vector_instrs", "count"},
	{"cape.sim_cycles", "cycles"},
	{"cape.new_us", "us"},
	{"exec.cape_run_ms", "ms"},
	{"exec.cpu_run_ms", "ms"},
	{"exec.alloc_mb_per_query", "MB"},
	{"runtime.gc_cpu_share", "fraction"},
	{"baseline.host_ns_per_kcycle", "ns"},
	{"baseline.sim_cycles", "cycles"},
	{"castle.query_ms", "ms"},
	{"castle.overhead_ms", "ms"},
	{"optimizer.predict_us", "us"},
	{"sql.parse_us", "us"},
	{"plan.bind_us", "us"},
	{"plan.compile_us", "us"},
	{"optimizer.optimize_us", "us"},
	{"optimizer.place_us", "us"},
	{"optimizer.plancache_hit_ratio", "fraction"},
	{"optimizer.plancache_evictions", "count"},
	{"optimizer.est_error_pct_mean", "%"},
	{"optimizer.est_error_pct_p95", "%"},
	{"server.queue_ms_mean", "ms"},
	{"server.lease_ms_mean", "ms"},
	{"server.exec_ms_mean", "ms"},
	{"server.serialize_ms_mean", "ms"},
	{"server.shed_ratio", "fraction"},
	{"server.shared_hit_ratio", "fraction"},
	{"server.coalesce_wait_ms_mean", "ms"},
	{"ssb.generate_ms", "ms"},
	{"stats.collect_ms", "ms"},
	{"loadgen.lag_ms_p99", "ms"},
	{"loadgen.lag_ms_max", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"self.bench_ms", "ms"},
	{"self.castle_ms", "ms"},
	{"self.sql_ms", "ms"},
	{"self.plan_ms", "ms"},
	{"self.optimizer_ms", "ms"},
	{"self.cape_ms", "ms"},
	{"self.baseline_ms", "ms"},
	{"self.exec_ms", "ms"},
	{"self.server_ms", "ms"},
}

// selfLayers are the layers whose self time the traced run reports.
var selfLayers = []string{"bench", "castle", "sql", "plan", "optimizer", "cape", "baseline", "exec", "server"}

// report is what a workload run hands back: checked-operation counts and
// metric values by name.
type report struct {
	attempted, failed int64
	// mismatches counts wrong answers and non-deterministic cycle counts
	// (a subset of failed); any makes the run incorrect.
	mismatches int64
	metrics    map[string]float64
	// env carries the workload's own settings for the environment line.
	env map[string]any
}

// fail counts one failed operation; a wrong answer or a changed cycle
// count also makes the run incorrect.
func (r *report) fail(err error) {
	r.failed++
	if errors.As(err, new(errMismatch)) {
		r.mismatches++
	}
}

type runConfig struct {
	seed     uint64
	duration time.Duration
	trace    bool
	// traceDir receives the span dump of a traced run.
	traceDir string
}

var workloads = map[string]func(runConfig) (*report, error){
	"ssb-cape":    func(c runConfig) (*report, error) { return runBatch(c, batchCAPE) },
	"ssb-cpu":     func(c runConfig) (*report, error) { return runBatch(c, batchCPU) },
	"serve-mixed": runServe,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: ssb-cape, ssb-cpu or serve-mixed")
	seed := flag.Uint64("seed", 1, "seed for the generated data and request mix")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced measurement and prints per-layer metrics")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "castlebench: need --workload ssb-cape|ssb-cpu|serve-mixed, --seconds >= 1, --trace 0|1 (got %q, %d, %d)\n",
			*workload, *seconds, *trace)
		return 2
	}
	// Never run more Ps than the CPUs this process may use.
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "castlebench:", err)
		return 2
	}
	cfg := runConfig{
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		traceDir: filepath.Join(wd, ".bench_build", "traces"),
	}
	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "castlebench:", err)
		return 2
	}

	env := map[string]any{
		"workload":   *workload,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
	for k, v := range rep.env {
		env[k] = v
	}
	envLine, _ := json.Marshal(env) // a map of plain values always encodes
	fmt.Printf("env %s\n", envLine)

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := resultOut{
		Correct:   rep.mismatches == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(os.Stderr, "castlebench: workload %s did not measure %s\n", *workload, d.name)
			return 2
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "castlebench:", err)
		return 2
	}
	fmt.Println(string(line))
	if rep.mismatches > 0 {
		fmt.Fprintf(os.Stderr, "castlebench: %d wrong answers or cycle mismatches\n", rep.mismatches)
		return 1
	}
	return 0
}

// selfTimeMetrics adds each reported layer's self time, per unit of work,
// from the spans whose request id passes keep.
func selfTimeMetrics(m map[string]float64, tr *tracer, units int, keep func(req int64) bool) {
	self := tr.selfByLayer(keep)
	for _, l := range selfLayers {
		m["self."+l+"_ms"] = ratio(float64(self[l])/1e6, float64(units))
	}
	m["trace.spans"] = float64(len(tr.spans))
}
