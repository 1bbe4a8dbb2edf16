// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload in-process and prints, as the last line of its output,
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the metrics are the end-to-end ones, measured with every
// instrument off. With --trace 1 a short untraced phase is followed by a
// traced one (driver spans, the program's metrics registries, a CPU
// profile), and the metrics are the per-layer ones. DESIGN.md in this
// directory records why each workload and metric exists.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd is printed by every untraced run. One op is one image on
// fovea-origin, coarse-edge and adapt-drift, and one session on
// adapt-mix.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"heap_peak_mb", "MB"},
	{"latency_p50_ms", "ms"},
}

var codecs = []string{"bzw", "lzw", "raw"}

// perLayer is printed by every traced run; a layer a workload does not
// reach reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"cluster.resolve_us", "us"},
		{"cluster.place_us", "us"},
		{"cluster.session_start_p50_ms", "ms"},
		{"avis.connect_us", "us"},
		{"avis.round_us", "us"},
		{"avis.round_p50_ms", "ms"},
		{"avis.round_p90_ms", "ms"},
		{"avis.server_us", "us"},
		{"avis.segments_per_round", "count"},
		{"avis.wire_kb_per_op", "KB"},
		{"wire.transport_us", "us"},
		{"wire.frames_per_op", "count"},
	}
	for _, c := range codecs {
		defs = append(defs,
			metricDef{"compress.encode_us." + c, "us"},
			metricDef{"compress.decode_us." + c, "us"},
			metricDef{"compress.ratio." + c, "ratio"})
	}
	defs = append(defs,
		metricDef{"wavelet.extract_us", "us"},
		metricDef{"wavelet.chunk_encode_us", "us"},
		metricDef{"wavelet.decode_chunk_us", "us"},
		metricDef{"wavelet.apply_us", "us"},
		metricDef{"wavelet.reconstruct_us", "us"},
		metricDef{"edge.hit_ratio", "ratio"},
		metricDef{"edge.serve_cache_us", "us"},
		metricDef{"edge.serve_origin_us", "us"},
		metricDef{"edge.origin_fetch_us", "us"},
		metricDef{"scheduler.admit_ratio", "ratio"},
		metricDef{"scheduler.derated_per_session", "count"},
		metricDef{"steering.switches_per_session", "count"},
		metricDef{"qos.pass_rate", "ratio"},
		metricDef{"qos.deadline_hit_rate", "ratio"},
		metricDef{"qos.virtual_total_s", "s"},
		metricDef{"core.triggers", "count"},
		metricDef{"core.switches", "count"},
		metricDef{"core.trigger_to_switch_s", "s"},
		metricDef{"profiler.sweep_s", "s"},
	)
	for _, p := range internalPkgs {
		defs = append(defs, metricDef{"cpu." + p, "%"})
	}
	defs = append(defs,
		metricDef{"cpu." + bucketGC, "%"},
		metricDef{"cpu." + bucketSyscall, "%"},
		metricDef{"cpu." + bucketOther, "%"},
		metricDef{"runtime.alloc_kb_per_op", "KB"},
		metricDef{"runtime.gc_cpu_share", "%"},
		metricDef{"bench.unattributed_pct", "%"},
		metricDef{"bench.trace_overhead_pct", "%"},
		metricDef{"bench.latency_p90_ms", "ms"},
		metricDef{"bench.fetch_p99_ms", "ms"},
	)
	return defs
}()

// stageBound is the largest share of a traced fetch its client-side
// spans may leave unattributed: the bound of latency_p50_ms.
const stageBound = 0.25

// setupChildren is how many extra processes time the set-up; with the
// run's own set-up that makes nine samples, whose median is setup_s. With
// five, the socket workloads' setup_s (≈0.14 s) spread 0.29-0.32 over ten
// runs.
const setupChildren = 8

var workloadNames = []string{"fovea-origin", "coarse-edge", "adapt-mix", "adapt-drift"}

// report is one run's outcome before it is printed.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	// detail carries workload-specific figures and diagnostics for the
	// line printed before the result.
	detail map[string]float64
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	setupOnly := flag.Bool("setup-only", false, "time one set-up, print its seconds and exit (used by the benchmark itself)")
	flag.Parse()

	known := false
	for _, w := range workloadNames {
		known = known || w == *name
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	if *setupOnly {
		d, err := setupOnce(*name, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(d.Seconds())
		return
	}
	dur := time.Duration(*seconds) * time.Second
	var rep *report
	var err error
	switch *name {
	case "fovea-origin", "coarse-edge":
		rep, err = runSocketWorkload(*name, *seed, dur, *trace == 1)
	default:
		rep, err = runAdaptWorkload(*name, *seed, dur, *trace == 1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if err := emit(*name, *seed, rep, defs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the detail line, then the result line.
func emit(name string, seed uint64, rep *report, defs []metricDef) error {
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", name, p)
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	detail, err := json.Marshal(map[string]any{
		"workload": name, "seed": seed, "detail": rep.detail, "problems": rep.problems,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(detail))
	res, err := json.Marshal(map[string]any{
		"correct":   len(rep.problems) == 0 && rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}

// setupOnce times one set-up of the workload in this process.
func setupOnce(name string, seed uint64) (time.Duration, error) {
	t0 := time.Now()
	switch name {
	case "fovea-origin", "coarse-edge":
		topo, err := bootTopology(newSocketInputs(seed, name == "coarse-edge").imageSeeds, false)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		topo.close()
		return d, nil
	case "adapt-mix":
		_, err := setupMix()
		return time.Since(t0), err
	default:
		err := setupDrift()
		return time.Since(t0), err
	}
}

// childSetups times the set-up in n fresh processes, one after another:
// the profiled databases are cached per process, so a second set-up in
// this one would measure nothing.
func childSetups(name string, seed uint64, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		cmd := exec.CommandContext(ctx, exe, "--workload", name,
			"--seed", strconv.FormatUint(seed, 10), "--setup-only")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("setup child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("setup child printed %q", b)
		}
		out = append(out, v)
	}
	return out, nil
}

// zeroLayers starts a per-layer metric set with every layer at 0.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// profileCPU starts a CPU profile under .bench_build in the working
// directory; the returned function stops it, reads it back and removes
// it.
func profileCPU() (func() (map[string]float64, error), error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "prof-")
	if err != nil {
		return nil, err
	}
	path := dir + "/cpu.pb.gz"
	f, err := os.Create(path)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return func() (map[string]float64, error) {
		pprof.StopCPUProfile()
		defer os.RemoveAll(dir)
		if err := f.Close(); err != nil {
			return nil, err
		}
		stacks, err := readProfile(path)
		if err != nil {
			return nil, err
		}
		return cpuShares(stacks), nil
	}, nil
}

// putShares stores the CPU attribution as cpu.<bucket> metrics.
func putShares(m map[string]float64, shares map[string]float64) {
	for b, s := range shares {
		key := "cpu." + b
		if _, ok := m[key]; !ok {
			key = "cpu." + bucketOther // a package added after this list
		}
		m[key] += s
	}
}
