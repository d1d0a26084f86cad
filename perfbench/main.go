// Command perfbench is the repository's benchmark. It drives the
// simulator from outside, through the public functions of internal/core,
// internal/exp, internal/exp/pool, internal/sweep, internal/sim and
// internal/guard, on one of three workloads, checks that every simulated
// result is unchanged, and prints host-time metrics. See README.md.
//
//	perfbench --workload paper-suite --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced passes and prints the per-layer
// metrics. The last line of standard output is one JSON object.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, taken with
// tracing off.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"sim_events_per_s", "events/s"},
	{"cell_p50_s", "s"},
	{"cell_p95_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, from the traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.wake_handoffs", "count"},
		{"sim.heap_peak", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.handoff_ns", "ns"},
		{"sim.dispatch_ns", "ns"},
		{"runtime.sched_wait_s", "s"},
		{"runtime.gc_cpu_s", "s"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cycles", "count"},
		{"workload.ops", "count"},
		{"vm.faults", "count"},
		{"vm.swap_outs", "count"},
		{"vm.clean_evicts", "count"},
		{"optical.ring_hits", "count"},
		{"disk.hits", "count"},
		{"disk.misses", "count"},
		{"mesh.messages", "count"},
		{"mesh.bytes", "bytes"},
		{"coherence.remote_accs", "count"},
		{"fault.injected", "count"},
		{"fault.retries", "count"},
		{"pool.fresh", "count"},
		{"pool.memo_hits", "count"},
		{"pool.queue_wait_s", "s"},
		{"pool.busy_s", "s"},
		{"pool.utilization", "ratio"},
		{"sweep.fresh", "count"},
		{"sweep.from_state", "count"},
		{"sweep.from_cache", "count"},
		{"sweep.run_s", "s"},
		{"sweep.merge_s", "s"},
		{"sweep.warm_wall_s", "s"},
		{"sweep.warm_run_s", "s"},
		{"sweep.warm_merge_s", "s"},
		{"sweep.record_bytes", "bytes"},
		{"guard.fsyncs", "count"},
		{"guard.fsync_s", "s"},
		{"guard.write_mb", "MB"},
		{"guard.read_mb", "MB"},
		{"guard.renames", "count"},
		{"bench.trace_overhead_ratio", "ratio"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_s", "s"})
	}
	return defs
}()

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: paper-suite, gauss-serial or grid-sweep")
	seed := fl.Int64("seed", 1, "workload seed (the simulations' Config.Seed)")
	seconds := fl.Int("seconds", 10, "measure for about this many seconds (at least the minimum pass count)")
	traceMode := fl.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := fl.String("out", ".bench_out", "directory for scratch files, traces and the ledger")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (paper-suite, gauss-serial, grid-sweep), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	e := &env{seed: *seed, workers: runtime.NumCPU(), out: *out}
	if wl.name == "paper-suite" && *seed == 1 {
		b, err := os.ReadFile(filepath.Join("testdata", "golden.digest"))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: reading the golden digest: %v\n", err)
			return 1
		}
		e.golden = strings.TrimSpace(string(b))
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	traced := *traceMode == 1
	runID := fmt.Sprintf("%s-seed%d-%d", wl.name, *seed, os.Getpid())
	var tr *tracer
	if traced {
		tr = newTracer(runID)
	}

	// Passes run until the time is spent, never fewer than the minimum.
	// A traced run alternates untraced and traced passes, so the two
	// walls compare like with like.
	var (
		plain, withTrace []*pass
		self             = map[string]float64{}
		rt               runtimeSample
		firstProfile     []byte
	)
	budget := time.Duration(*seconds) * time.Second
	start := time.Now()
	for i := 0; ; i++ {
		runtime.GC() // each pass starts from a clean heap, as a fresh process would
		t0 := time.Now()
		if traced && i%2 == 1 {
			var buf bytes.Buffer
			before := readRuntime()
			if err := pprof.StartCPUProfile(&buf); err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			p := wl.run(e, tr)
			pprof.StopCPUProfile()
			after := readRuntime()
			rt.schedWait += after.schedWait - before.schedWait
			rt.gcCPU += after.gcCPU - before.gcCPU
			rt.allocB += after.allocB - before.allocB
			rt.gcCycles += after.gcCycles - before.gcCycles
			bySelf, _, err := profileSelf(buf.Bytes())
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			for l, s := range bySelf {
				self[l] += s
			}
			if firstProfile == nil {
				firstProfile = buf.Bytes()
			}
			withTrace = append(withTrace, p)
		} else {
			plain = append(plain, wl.run(e, nil))
		}
		last := time.Since(t0)
		enough := len(plain) >= 3
		if traced {
			enough = len(plain) >= 2 && len(withTrace) >= 2
		}
		fmt.Fprintf(stderr, "perfbench: %s pass %d: %.3fs\n", wl.name, i+1, last.Seconds())
		if enough && time.Since(start)+last > budget {
			break
		}
	}

	all := append(append([]*pass(nil), plain...), withTrace...)
	var extra map[string]int64
	if traced {
		ops, err := wl.ops(e)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: recording op streams: %v\n", err)
			return 1
		}
		extra = map[string]int64{"workload.ops": ops}
	}
	problems := checkExact(wl.name, e, all, extra, stderr)

	res := result{Metrics: map[string]metric{}}
	for _, p := range all {
		res.Attempted += p.cellCount
		res.Failed += p.failedCells()
		for key, why := range p.failed {
			problems = append(problems, fmt.Sprintf("%.16s: %s", key, why))
		}
	}
	res.Correct = res.Failed == 0
	for _, msg := range dedupe(problems) {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", msg)
	}

	values := map[string]float64{}
	var defs []metricDef
	if traced {
		defs = perLayer
		layerValues(values, withTrace, plain, self, rt, extra)
		if err := probeValues(values); err != nil {
			fmt.Fprintf(stderr, "perfbench: sim probe: %v\n", err)
			return 1
		}
		base := filepath.Join(e.out, "trace", fmt.Sprintf("%s-seed%d", wl.name, *seed))
		if err := tr.write(base + ".spans.ndjson"); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		if err := os.WriteFile(base+".cpu.pprof", firstProfile, 0o644); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing profile: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: spans in %s.spans.ndjson, CPU profile in %s.cpu.pprof\n", base, base)
		for _, st := range tr.summary() {
			fmt.Fprintf(stderr, "  span %s\n", st)
		}
	} else {
		defs = endToEnd
		endToEndValues(values, plain, stdout)
	}
	for _, d := range defs {
		v := values[d.name]
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-28s %16.6f %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// endToEndValues computes the end-to-end metrics from untraced passes:
// medians over passes, and cell percentiles over every cell of the run.
func endToEndValues(v map[string]float64, passes []*pass, stdout io.Writer) {
	var walls, rates, setups, cells []float64
	for _, p := range passes {
		walls = append(walls, p.wall)
		setups = append(setups, p.setup)
		if p.wall > 0 {
			rates = append(rates, float64(p.events)/p.wall)
		}
		cells = append(cells, p.cells...)
	}
	v["wall_s"] = median(walls)
	v["sim_events_per_s"] = median(rates)
	v["cell_p50_s"] = median(cells)
	p95, beyond := percentile(cells, 95)
	v["cell_p95_s"] = p95
	v["setup_s"] = median(setups)
	v["peak_rss_mb"] = peakRSSMB()
	fmt.Fprintf(stdout, "passes %d, wall_s spread %.4f (interquartile range / median); cells %d, %d beyond p95\n",
		len(passes), spread(walls), len(cells), beyond)
}

// layerValues computes the per-layer metrics: exact counts from the
// ledger, medians of the traced passes' layer timings, profile self
// time and runtime deltas per traced pass.
func layerValues(v map[string]float64, traced, plain []*pass, self map[string]float64, rt runtimeSample, extra map[string]int64) {
	n := float64(len(traced))
	ref := traced[0]
	for name, c := range ref.counts {
		v[name] = float64(c)
	}
	for name, c := range extra {
		v[name] = float64(c)
	}
	layerNames := map[string]bool{}
	for _, p := range traced {
		for name := range p.layer {
			layerNames[name] = true
		}
	}
	for name := range layerNames {
		var xs []float64
		for _, p := range traced {
			xs = append(xs, p.layer[name])
		}
		v[name] = median(xs)
	}
	var perEvent, tracedWalls, plainWalls []float64
	for _, p := range traced {
		var busy float64
		for _, c := range p.cells {
			busy += c
		}
		if p.events > 0 {
			perEvent = append(perEvent, busy*1e9/float64(p.events))
		}
		tracedWalls = append(tracedWalls, p.wall)
	}
	for _, p := range plain {
		plainWalls = append(plainWalls, p.wall)
	}
	v["sim.ns_per_event"] = median(perEvent)
	if pw := median(plainWalls); pw > 0 {
		v["bench.trace_overhead_ratio"] = median(tracedWalls)/pw - 1
	}
	for _, l := range layers {
		v[l+".self_s"] = self[l] / n
	}
	v["runtime.sched_wait_s"] = rt.schedWait / n
	v["runtime.gc_cpu_s"] = rt.gcCPU / n
	v["runtime.alloc_mb"] = rt.allocB / n / (1 << 20)
	v["runtime.gc_cycles"] = rt.gcCycles / n
}

// probeValues runs the sim layer's probes.
func probeValues(v map[string]float64) error {
	handoff, err := medianOf(5, func() (float64, error) { return handoffProbe(100_000) })
	if err != nil {
		return err
	}
	dispatch, err := medianOf(5, func() (float64, error) { return dispatchProbe(200_000) })
	if err != nil {
		return err
	}
	v["sim.handoff_ns"] = handoff
	v["sim.dispatch_ns"] = dispatch
	return nil
}

// checkExact holds every pass to the first pass's exact counts and
// digests, then the run to the cross-run ledger of this build and seed.
// Disagreeing cells are marked failed on the passes; problems that are
// not tied to a pass are returned.
func checkExact(workload string, e *env, passes []*pass, extra map[string]int64, stderr io.Writer) []string {
	ref := passes[0]
	for _, p := range passes[1:] {
		counts, digests := diffExact(ref.counts, p.counts, ref.digests, p.digests)
		for _, c := range counts {
			p.fail("*", "count differs between passes: "+c)
		}
		for _, k := range digests {
			p.fail(k, "result digest differs between passes")
		}
	}
	counts := map[string]int64{}
	for k, v := range ref.counts {
		counts[k] = v
	}
	for k, v := range extra {
		counts[k] = v
	}
	path, err := ledgerPath(e.out, e.seed)
	if err != nil {
		return []string{"ledger: " + err.Error()}
	}
	led, err := readLedger(path)
	if err != nil {
		return []string{err.Error()}
	}
	badCounts, badDigests := diffExact(led.Counts[workload], counts, led.Digests, ref.digests)
	for _, p := range passes {
		for _, c := range badCounts {
			p.fail("*", "count differs from an earlier run: "+c)
		}
		for _, k := range badDigests {
			p.fail(k, "result digest differs from an earlier run of this cell")
		}
	}
	led.merge(workload, counts, ref.digests)
	if err := led.write(path); err != nil {
		return []string{"ledger: " + err.Error()}
	}
	fmt.Fprintf(stderr, "perfbench: exact counts and digests checked against %s\n", path)
	return nil
}

func dedupe(xs []string) []string {
	sort.Strings(xs)
	var out []string
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
