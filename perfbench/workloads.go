package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"nwcache/internal/core"
	"nwcache/internal/exp"
	"nwcache/internal/exp/pool"
	"nwcache/internal/guard"
	"nwcache/internal/machine"
	"nwcache/internal/sweep"
	"nwcache/internal/workload"
)

// env is what every pass of a run shares.
type env struct {
	seed    int64
	workers int    // pool workers: one per CPU
	out     string // scratch and artifact directory
	golden  string // expected paper-suite digest at seed 1 ("" elsewhere)
}

// pass is one timed execution of a workload, with everything the run
// reports and checks about it.
type pass struct {
	setup  float64   // seconds of set-up calls before the timed part
	wall   float64   // seconds of the timed part
	events uint64    // engine events dispatched in fresh cells
	cells  []float64 // host seconds of each fresh cell

	cellCount int               // cells the pass attempted
	failed    map[string]string // cell key (or "*" for all) -> failed check
	counts    map[string]int64  // exact counts (the ledger)
	digests   map[string]string // cell key or output name -> sha256
	layer     map[string]float64
}

func newPass() *pass {
	return &pass{failed: map[string]string{}, counts: map[string]int64{},
		digests: map[string]string{}, layer: map[string]float64{}}
}

// fail marks key (a cell key, or "*" for every cell of the pass) as
// having failed a check.
func (p *pass) fail(key, why string) {
	if _, ok := p.failed[key]; !ok {
		p.failed[key] = why
	}
}

// failedCells is how many of the pass's cells failed.
func (p *pass) failedCells() int {
	if _, ok := p.failed["*"]; ok {
		return p.cellCount
	}
	return min(len(p.failed), p.cellCount)
}

// workloadDef is one benchmark workload. run executes one pass; tr is
// nil on untraced passes. ops returns the exact op count of one pass's
// cells, from workload.Record (traced runs only: it simulates again).
type workloadDef struct {
	name string
	run  func(e *env, tr *tracer) *pass
	ops  func(e *env) (int64, error)
}

var workloads = []workloadDef{
	{"paper-suite", paperSuite, paperSuiteOps},
	{"gauss-serial", gaussSerial, gaussSerialOps},
	{"grid-sweep", gridSweep, gridSweepOps},
}

var (
	kinds = []core.Kind{core.Standard, core.NWCache}
	modes = []core.PrefetchMode{core.Naive, core.Optimal}
)

// paperConfig is the base configuration of the paper's evaluation at
// the benchmark's seed.
func paperConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scale = 1.0
	cfg.Seed = seed
	return cfg
}

func sum256(b []byte) string {
	h := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(h[:])
}

// addResult folds one cell's simulated counts into the pass ledger.
func (p *pass) addResult(res *core.Result) {
	c := p.counts
	c["vm.faults"] += int64(res.Faults)
	c["vm.swap_outs"] += int64(res.SwapOuts)
	c["vm.clean_evicts"] += int64(res.CleanEvicts)
	c["optical.ring_hits"] += int64(res.RingHits)
	c["disk.hits"] += int64(res.DiskHits)
	c["disk.misses"] += int64(res.DiskMisses)
	c["mesh.messages"] += int64(res.NetMessages)
	c["mesh.bytes"] += res.NetBytes
	c["coherence.remote_accs"] += int64(res.RemoteAccs)
	if fs := res.FaultStats; fs != nil {
		c["fault.injected"] += int64(fs.DiskReadErrors + fs.DiskWriteErrors + fs.RingCorruptions +
			fs.NodeCrashes + fs.MeshReroutes + fs.MeshStalls + fs.OutageFallbacks)
		c["fault.retries"] += int64(fs.DiskRetries)
	}
}

// addEngine folds one cell's engine counts into the pass ledger.
func (p *pass) addEngine(events, handoffs uint64, heapPeak int) {
	p.events += events
	p.counts["sim.events"] += int64(events)
	p.counts["sim.wake_handoffs"] += int64(handoffs)
	p.counts["sim.heap_peak"] = max(p.counts["sim.heap_peak"], int64(heapPeak))
}

// poolCells folds the cells a cellProbe timed into the pass, checking
// that each produced a result.
func (p *pass) poolCells(cp *cellProbe, wall float64, workers int) {
	for _, r := range cp.runs {
		p.cells = append(p.cells, r.end.Sub(r.start).Seconds())
		p.digests[r.key] = sweep.ResultDigest(r.res)
		p.addResult(r.res)
		if r.m != nil {
			p.addEngine(r.m.E.Dispatched(), r.m.E.WakeHandoffs(), r.m.E.HeapPeak())
		}
	}
	busy := cp.busy()
	p.layer["pool.queue_wait_s"] = cp.queueWait()
	p.layer["pool.busy_s"] = busy
	p.layer["pool.utilization"] = busy / (float64(workers) * wall)
}

// setupReps is how many times a pass repeats a set-up that takes
// microseconds: one timing per pass would be mostly noise, so the pass
// keeps the last set-up and reports the median. gauss-serial sets up
// once: its set-up builds four scale-1.0 machines, which takes long
// enough to time alone, and repeating it would raise the peak memory
// the run reports.
const setupReps = 9

// timedSetup runs fn reps times and returns the median duration and the
// last result.
func timedSetup[T any](tr *tracer, parent int64, reps int, fn func() (T, error)) (float64, T, error) {
	sp := tr.begin("setup", parent)
	defer tr.end(sp)
	var (
		xs  []float64
		v   T
		err error
	)
	for i := 0; i < reps; i++ {
		// Drop the previous set-up before the next, so repetition does
		// not raise the peak memory the run reports.
		var zero T
		v = zero
		runtime.GC()
		t0 := time.Now()
		v, err = fn()
		xs = append(xs, time.Since(t0).Seconds())
		if err != nil {
			return 0, v, err
		}
	}
	return median(xs), v, nil
}

// paperSuite is `nwbench -all`: the 28 cells of the paper's evaluation
// on a fresh pool, then every table and figure.
func paperSuite(e *env, tr *tracer) *pass {
	p := newPass()
	p.cellCount = len(core.Apps()) * len(kinds) * len(modes)
	root := tr.begin("pass", 0)
	defer tr.end(root)

	type setup struct {
		sched *pool.Pool
		suite *exp.Suite
		cp    *cellProbe
	}
	var st setup
	p.setup, st, _ = timedSetup(tr, root, setupReps, func() (setup, error) {
		sched := pool.New(e.workers)
		suite := exp.NewSuiteOn(paperConfig(e.seed), sched)
		cp := newCellProbe(tr)
		sched.SetBacking(cp)
		suite.AddObserver(cp.observe)
		suite.Progress = func(string) { cp.submit() }
		return setup{sched, suite, cp}, nil
	})
	sched, suite, cp := st.sched, st.suite, st.cp
	var out bytes.Buffer

	t1 := time.Now()
	sp := tr.begin("exp.Suite.Prewarm", root)
	cp.parent.Store(sp)
	err := suite.Prewarm(e.workers)
	tr.end(sp)
	if err == nil {
		sp = tr.begin("exp.Suite.WriteAll", root)
		err = suite.WriteAll(&out)
		tr.end(sp)
	}
	p.wall = time.Since(t1).Seconds()

	if err != nil {
		p.fail("*", err.Error())
	}
	p.poolCells(cp, p.wall, e.workers)
	if len(cp.runs) != p.cellCount {
		p.fail("*", fmt.Sprintf("%d fresh cells, want %d", len(cp.runs), p.cellCount))
	}
	runs, hits := sched.Stats()
	p.counts["pool.fresh"] = int64(runs)
	p.counts["pool.memo_hits"] = int64(hits)
	p.counts["cells"] = int64(p.cellCount)
	p.digests["paper-suite.output"] = sum256(out.Bytes())
	if e.golden != "" && p.digests["paper-suite.output"] != e.golden {
		p.fail("*", fmt.Sprintf("output %s differs from testdata/golden.digest %s", p.digests["paper-suite.output"], e.golden))
	}
	return p
}

func paperSuiteOps(e *env) (int64, error) {
	var total int64
	for _, app := range core.Apps() {
		n, err := recordOps(app, paperConfig(e.seed))
		if err != nil {
			return 0, err
		}
		total += n * int64(len(kinds)*len(modes))
	}
	return total, nil
}

// recordOps is the op count of one application's streams.
func recordOps(app string, cfg core.Config) (int64, error) {
	prog, err := core.NewProgram(app, cfg)
	if err != nil {
		return 0, err
	}
	t, err := workload.Record(prog, cfg)
	if err != nil {
		return 0, err
	}
	return int64(t.TotalOps()), nil
}

// gaussSerial is single-run latency as `nwsim` sees it: gauss on each
// machine kind and prefetch mode, one run at a time on one goroutine,
// built and run through core directly.
func gaussSerial(e *env, tr *tracer) *pass {
	p := newPass()
	p.cellCount = len(kinds) * len(modes)
	root := tr.begin("pass", 0)
	defer tr.end(root)

	type run struct {
		cell core.Cell
		prog core.Program
		m    *machine.Machine
	}
	var runs []run
	var err error
	p.setup, runs, err = timedSetup(tr, root, 1, func() ([]run, error) {
		var runs []run
		for _, kind := range kinds {
			for _, mode := range modes {
				cfg := core.ApplyPaperMinFree(paperConfig(e.seed), kind, mode)
				prog, err := core.NewProgram("gauss", cfg)
				if err != nil {
					return nil, err
				}
				m, err := core.NewMachine(cfg, kind, mode)
				if err != nil {
					return nil, err
				}
				runs = append(runs, run{core.Cell{App: "gauss", Kind: kind, Mode: mode, Cfg: cfg}, prog, m})
			}
		}
		return runs, nil
	})
	if err != nil {
		p.fail("*", err.Error())
		return p
	}

	type done struct {
		res *core.Result
		err error
	}
	results := make([]done, len(runs))
	t1 := time.Now()
	for i, r := range runs {
		s := tr.begin("machine.Run", root)
		start := time.Now()
		res, err := r.m.Run(r.prog)
		p.cells = append(p.cells, time.Since(start).Seconds())
		tr.end(s)
		results[i] = done{res, err}
	}
	p.wall = time.Since(t1).Seconds()

	for i, r := range runs {
		key := r.cell.Key()
		if results[i].err != nil {
			p.fail(key, results[i].err.Error())
			continue
		}
		p.digests[key] = sweep.ResultDigest(results[i].res)
		p.addResult(results[i].res)
		p.addEngine(r.m.E.Dispatched(), r.m.E.WakeHandoffs(), r.m.E.HeapPeak())
	}
	p.counts["cells"] = int64(p.cellCount)
	return p
}

func gaussSerialOps(e *env) (int64, error) {
	n, err := recordOps("gauss", paperConfig(e.seed))
	return n * int64(len(kinds)*len(modes)), err
}

// gridSpec is the grid-sweep workload's spec: every app, both machines
// and prefetch modes, four seeds from the benchmark seed, and a fault
// variant, at scale 0.1 with per-cell series sampling.
func gridSpec(seed int64) string {
	return strings.Join([]string{
		"name perfbench-grid",
		"apps em3d,fft,gauss,lu,mg,radix,sor",
		"kinds standard,nwcache",
		"modes naive,optimal",
		fmt.Sprintf("seeds %d..%d", seed, seed+3),
		"scale 0.1",
		"series 5000000",
		"fault none",
		fmt.Sprintf("fault recovery=conservative seed=%d plan=disk read-error rate=0.1; disk write-error rate=0.1; ring corrupt rate=0.1", seed),
	}, "\n") + "\n"
}

// gridSweep is a one-shard `nwsweep -grid` in a fresh directory: a cold
// pass that simulates every cell and merges, then a warm pass that
// resumes over the finished directory and merges again.
func gridSweep(e *env, tr *tracer) *pass {
	p := newPass()
	p.cellCount = 1 // until the spec is parsed, a failure counts once
	root := tr.begin("pass", 0)
	defer tr.end(root)
	dir := filepath.Join(e.out, "grid") // the runner creates it
	if err := os.RemoveAll(dir); err != nil {
		p.fail("*", err.Error())
		return p
	}
	defer os.RemoveAll(dir)

	type setup struct {
		spec  *sweep.Spec
		sched *pool.Pool
		cp    *cellProbe
	}
	var st setup
	var err error
	p.setup, st, err = timedSetup(tr, root, setupReps, func() (setup, error) {
		spec, err := sweep.ParseSpec(gridSpec(e.seed))
		if err != nil {
			return setup{}, err
		}
		sched := pool.New(e.workers)
		cp := newCellProbe(tr)
		sched.SetBacking(cp)
		return setup{spec, sched, cp}, nil
	})
	if err != nil {
		p.fail("*", err.Error())
		return p
	}
	spec, sched, cp := st.spec, st.sched, st.cp
	p.cellCount = spec.NumCells()
	// Traced passes measure the guard layer through a timing FS; untraced
	// ones use the real filesystem (a nil guard.FS).
	var fs *timingFS
	var fsys guard.FS
	if tr != nil {
		fs = newTimingFS(tr)
		fsys = fs
	}
	under := func(span int64) {
		cp.parent.Store(span)
		if fs != nil {
			fs.parent.Store(span)
		}
	}

	// phase runs the shard and merges it, returning the summary, the
	// merge's table and the two phase times.
	phase := func(name string) (sweep.Summary, string, float64, float64, error) {
		r := &sweep.Runner{Spec: spec, Shards: 1, Dir: dir, Pool: sched, OnEvent: cp.event, FS: fsys}
		var table bytes.Buffer
		s := tr.begin("sweep.Runner.Run "+name, root)
		under(s)
		start := time.Now()
		sum, err := r.Run()
		runS := time.Since(start).Seconds()
		tr.end(s)
		if err != nil {
			return sum, "", runS, 0, err
		}
		s = tr.begin("sweep.Merge "+name, root)
		under(s)
		start = time.Now()
		_, err = sweep.MergeOn(fsys, nil, spec, dir, 1, &table)
		mergeS := time.Since(start).Seconds()
		tr.end(s)
		return sum, table.String(), runS, mergeS, err
	}

	t1 := time.Now()
	cold, coldTable, runS, mergeS, err := phase("cold")
	p.wall = time.Since(t1).Seconds()
	if err != nil {
		p.fail("*", "cold pass: "+err.Error())
		return p
	}
	coldOut, err := mergedDigests(dir)
	if err != nil {
		p.fail("*", err.Error())
		return p
	}
	p.poolCells(cp, p.wall, e.workers)
	if err := gridEngineCounts(p, dir); err != nil {
		p.fail("*", err.Error())
	}

	t2 := time.Now()
	warm, warmTable, warmRunS, warmMergeS, err := phase("warm")
	p.layer["sweep.warm_wall_s"] = time.Since(t2).Seconds()
	if err != nil {
		p.fail("*", "warm pass: "+err.Error())
		return p
	}
	warmOut, err := mergedDigests(dir)
	if err != nil {
		p.fail("*", err.Error())
		return p
	}

	if cold.Fresh != p.cellCount || warm.FromState != p.cellCount || warm.Fresh != 0 {
		p.fail("*", fmt.Sprintf("cold %v / warm %v: want every cell fresh, then every cell from STATE", cold, warm))
	}
	for name, d := range coldOut {
		if warmOut[name] != d {
			p.fail("*", fmt.Sprintf("warm %s differs from cold", name))
		}
		p.digests["grid-sweep."+name] = d
	}
	if warmTable != coldTable {
		p.fail("*", "warm merge summary differs from cold")
	}
	p.counts["sweep.fresh"] = int64(cold.Fresh + warm.Fresh)
	p.counts["sweep.from_state"] = int64(cold.FromState + warm.FromState)
	p.counts["sweep.from_cache"] = int64(cold.FromCache + warm.FromCache)
	runs, hits := sched.Stats()
	p.counts["pool.fresh"] = int64(runs)
	p.counts["pool.memo_hits"] = int64(hits)
	p.counts["cells"] = int64(p.cellCount)
	p.layer["sweep.run_s"] = runS
	p.layer["sweep.merge_s"] = mergeS
	p.layer["sweep.warm_run_s"] = warmRunS
	p.layer["sweep.warm_merge_s"] = warmMergeS
	if fs != nil {
		p.layer["guard.fsyncs"] = float64(fs.fsyncs.Load())
		p.layer["guard.fsync_s"] = float64(fs.fsyncNS.Load()) / 1e9
		p.layer["guard.write_mb"] = float64(fs.written.Load()) / (1 << 20)
		p.layer["guard.read_mb"] = float64(fs.readBytes.Load()) / (1 << 20)
		p.layer["guard.renames"] = float64(fs.renames.Load())
	}
	return p
}

// mergedDigests hashes the merged artifacts of a sweep directory.
func mergedDigests(dir string) (map[string]string, error) {
	out := map[string]string{}
	ndjson, manifest, series := sweep.MergedPaths(dir)
	for name, path := range map[string]string{"ndjson": ndjson, "manifest": manifest, "series": series} {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("reading merged %s: %w", name, err)
		}
		out[name] = sum256(b)
	}
	return out, nil
}

// gridEngineCounts reads the engine counts of every cell from the
// metrics its merged record carries (the sweep runner owns the cells'
// Obs hook, so the machines are not reachable from outside), and checks
// each record against the result the pool returned for it.
func gridEngineCounts(p *pass, dir string) error {
	ndjson, _, _ := sweep.MergedPaths(dir)
	f, err := os.Open(ndjson)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	p.counts["sweep.record_bytes"] = st.Size()
	return sweep.ReadLines(f, func(l sweep.Line) error {
		get := func(name string) int64 {
			mv, _ := l.Metrics.Get(name)
			return mv.Value
		}
		p.addEngine(uint64(get("sim.events_dispatched")), uint64(get("sim.wake_handoffs")), int(get("sim.heap_peak")))
		if want, ok := p.digests[l.Key]; !ok || want != l.Digest {
			p.fail(l.Key, fmt.Sprintf("merged record %s does not match the pool's result", l.Label))
		}
		return nil
	})
}

func gridSweepOps(e *env) (int64, error) {
	spec, err := sweep.ParseSpec(gridSpec(e.seed))
	if err != nil {
		return 0, err
	}
	perProgram := map[string]int64{}
	var total int64
	err = spec.EachCell(func(_ int, c core.Cell) error {
		id := fmt.Sprintf("%s/%d", c.App, c.Cfg.Seed)
		n, ok := perProgram[id]
		if !ok {
			if n, err = recordOps(c.App, c.Cfg); err != nil {
				return err
			}
			perProgram[id] = n
		}
		total += n
		return nil
	})
	return total, err
}
