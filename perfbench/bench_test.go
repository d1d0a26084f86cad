package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 3.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{0.5, 0.25, 0.125, 2.0, 8.0, 1.0}, 0.21875, 3.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); got != (5.25-1.75)/3.5 {
		t.Errorf("spread = %v", got)
	}
}

func TestPercentileCountsSamplesBeyond(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if v, beyond := percentile(xs, 95); v != 95 || beyond != 5 {
		t.Errorf("p95 of 1..100 = %v with %d beyond, want 95 with 5", v, beyond)
	}
	if v, beyond := percentile(xs[:20], 95); v != 99 || beyond != 1 {
		t.Errorf("p95 of 81..100 = %v with %d beyond, want 99 with 1", v, beyond)
	}
	if v, beyond := percentile(xs, 50); v != 50 || beyond != 50 {
		t.Errorf("p50 of 1..100 = %v with %d beyond", v, beyond)
	}
	if v, beyond := percentile(nil, 95); v != 0 || beyond != 0 {
		t.Errorf("p95 of nothing = %v, %d", v, beyond)
	}
}

func TestAttributeChargesStdlibToCaller(t *testing.T) {
	for _, tc := range []struct {
		frames []string // leaf first
		want   string
	}{
		{[]string{"nwcache/internal/sim.(*Engine).drive", "runtime.goexit"}, "sim"},
		{[]string{"runtime.mallocgc", "nwcache/internal/machine.(*Machine).Run"}, "runtime"},
		{[]string{"encoding/json.(*decodeState).object", "reflect.Value.Field",
			"nwcache/internal/sweep.(*Cache).Get", "runtime.goexit"}, "sweep"},
		{[]string{"syscall.Syscall", "os.(*File).Sync", "main.(*timingFile).Sync"}, "bench"},
		{[]string{"crypto/sha256.block", "nwcache/internal/exp/pool.(*Pool).Submit.func1"}, "pool"},
		{[]string{"nwcache/internal/exp.(*Suite).WriteAll"}, "exp"},
		{[]string{"strconv.ParseInt"}, "other"},
	} {
		if got := attribute(tc.frames); got != tc.want {
			t.Errorf("attribute(%v) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

var sink float64

// spin burns CPU in this package. It accumulates in a local, so a race
// build does not instrument the loop.
func spin(d time.Duration) {
	var acc float64
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 100_000; i++ {
			acc += float64(i) * 1.5
		}
	}
	sink = acc
}

func TestProfileSelfDecodesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	self, total, err := profileSelf(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatalf("no samples in a 300ms busy profile")
	}
	var sum float64
	for l, s := range self {
		known := false
		for _, k := range layers {
			known = known || k == l
		}
		if !known {
			t.Errorf("sample charged to unlisted layer %q", l)
		}
		sum += s
	}
	if d := sum - total; d > 1e-9 || d < -1e-9 {
		t.Errorf("layers sum to %v, profile total %v", sum, total)
	}
	if self["bench"] < total/2 {
		t.Errorf("busy loop in this package charged %v of %v to bench: %v", self["bench"], total, self)
	}
	if _, err := decodeProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Errorf("truncated message decoded without error")
	}
}

// The name and unit alphabets of BENCHMARK.json.
var (
	validName   = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricsMatchBenchmarkJSON holds the metrics the program prints to
// the names, units and limits BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(defs) != len(names) {
			t.Errorf("%s: program prints %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(names))
			return
		}
		for i, d := range defs {
			if d.name != names[i] || d.unit != units[i] {
				t.Errorf("%s %d: program prints %s [%s], BENCHMARK.json lists %s [%s]", kind, i, d.name, d.unit, names[i], units[i])
			}
			if !validName.MatchString(d.name) || !unitPattern.MatchString(d.unit) {
				t.Errorf("%s: invalid metric name or unit %q [%q]", kind, d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("metric %s listed twice", d.name)
			}
			seen[d.name] = true
		}
	}
	var names, units []string
	for _, m := range spec.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range spec.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer, names, units)
	if !seen["setup_s"] {
		t.Errorf("no setup_s metric")
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || !validName.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
}

func TestDiffExactComparesCommonEntries(t *testing.T) {
	counts, digests := diffExact(
		map[string]int64{"sim.events": 10, "vm.faults": 3},
		map[string]int64{"sim.events": 11, "workload.ops": 7},
		map[string]string{"k1": "a", "k2": "b"},
		map[string]string{"k1": "a", "k2": "c", "k3": "d"})
	if len(counts) != 1 || len(digests) != 1 || digests[0] != "k2" {
		t.Errorf("diffExact = %v, %v", counts, digests)
	}
}

func TestSpanSelfTimeSubtractsChildUnion(t *testing.T) {
	if got := covered([][2]int64{{10, 30}, {20, 40}, {50, 60}, {90, 120}}, 0, 100); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
	tr := newTracer("test")
	t0 := tr.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.add("pass", 0, at(0), at(100))
	tr.add("cell", 1, at(10), at(60))
	tr.add("cell", 1, at(40), at(90))
	for _, st := range tr.summary() {
		switch st.Name {
		case "pass":
			if st.Self != 20*time.Millisecond {
				t.Errorf("pass self = %v, want 20ms", st.Self)
			}
		case "cell":
			if st.Count != 2 || st.Total != 100*time.Millisecond {
				t.Errorf("cell = %+v", st)
			}
		}
	}
}
