package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nwcache/internal/core"
	"nwcache/internal/guard"
	"nwcache/internal/machine"
	"nwcache/internal/obs"
	"nwcache/internal/sim"
)

// Probes that measure one layer from outside the program, through its
// public API only.

// handoffProbe measures a process handoff that always crosses
// goroutines: "ping" sleeps one pcycle and signals a Cond that "pong"
// waits on, so every wake-up — pong's unpark, then ping's Sleep wake —
// hands control to the other process. It returns host ns per handoff.
func handoffProbe(rounds int) (float64, error) {
	e := sim.New()
	c := sim.NewCond(e)
	e.SpawnDaemon("pong", func(p *sim.Proc) {
		for {
			c.Wait(p)
		}
	})
	e.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			p.Sleep(1)
			c.Signal()
		}
	})
	start := time.Now()
	if err := e.Run(); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / float64(e.WakeHandoffs()), nil
}

// dispatchProbe measures plain callback dispatch: a chain of After
// events, each scheduling the next. It returns host ns per event.
func dispatchProbe(events int) (float64, error) {
	e := sim.New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < events {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	start := time.Now()
	if err := e.Run(); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / float64(e.Dispatched()), nil
}

// medianOf runs a probe several times and returns the median reading.
func medianOf(reps int, probe func() (float64, error)) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		x, err := probe()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// cellRun is one fresh simulation as the pool ran it.
type cellRun struct {
	key        string
	start, end time.Time
	res        *core.Result
	m          *machine.Machine // nil when the caller owns the Obs hook
}

// cellProbe times the cells a pool simulates. It is installed as the
// pool's Backing: the pool calls Load right after a worker slot frees
// up, just before the simulation starts, and Store right after it
// ends. Load always misses, so every cell still runs. Submission times
// come from the caller's submit hook (Suite.Progress or the sweep
// runner's cell.start event); queue wait is their difference, summed.
type cellProbe struct {
	t0     time.Time
	tr     *tracer
	parent atomic.Int64

	mu       sync.Mutex
	submitNS int64 // summed submission offsets from t0
	startNS  int64 // summed start offsets from t0
	started  map[string]time.Time
	machines map[string]*machine.Machine
	runs     []cellRun
}

func newCellProbe(tr *tracer) *cellProbe {
	return &cellProbe{t0: time.Now(), tr: tr,
		started: map[string]time.Time{}, machines: map[string]*machine.Machine{}}
}

// submit records one fresh submission.
func (c *cellProbe) submit() {
	now := time.Since(c.t0).Nanoseconds()
	c.mu.Lock()
	c.submitNS += now
	c.mu.Unlock()
}

// Load implements pool.Backing: it stamps the cell's start and misses.
func (c *cellProbe) Load(key string) (*core.Result, bool) {
	now := time.Now()
	c.mu.Lock()
	c.started[key] = now
	c.startNS += now.Sub(c.t0).Nanoseconds()
	c.mu.Unlock()
	return nil, false
}

// Store implements pool.Backing: it stamps the cell's end and keeps the
// result for the output checks.
func (c *cellProbe) Store(key string, _ core.Cell, res *core.Result) {
	end := time.Now()
	c.mu.Lock()
	run := cellRun{key: key, start: c.started[key], end: end, res: res, m: c.machines[key]}
	delete(c.machines, key)
	c.runs = append(c.runs, run)
	c.mu.Unlock()
	c.tr.add("cell", c.parent.Load(), run.start, run.end)
}

// observe is a Suite observer: it keeps the cell's machine so the
// engine's counts can be read once the cell ends.
func (c *cellProbe) observe(cell core.Cell, m *machine.Machine) {
	key := cell.Key()
	c.mu.Lock()
	c.machines[key] = m
	c.mu.Unlock()
}

// event is a sweep Runner OnEvent hook: cell.start marks a fresh
// submission.
func (c *cellProbe) event(ev obs.Event) {
	if ev.Type == obs.EventCellStart {
		c.submit()
	}
}

// queueWait is the summed time cells waited between submission and the
// start of their simulation.
func (c *cellProbe) queueWait() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return float64(c.startNS-c.submitNS) / 1e9
}

// busy is the summed host time of the cells' simulations.
func (c *cellProbe) busy() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s float64
	for _, r := range c.runs {
		s += r.end.Sub(r.start).Seconds()
	}
	return s
}

// timingFS is a guard.FS over the real filesystem that counts and times
// what the sweep layer asks of the host: fsyncs (and their time),
// bytes written and read, and renames. With a tracer, every call is
// also a span under the phase currently running.
type timingFS struct {
	inner  guard.FS
	tr     *tracer
	parent atomic.Int64

	fsyncs, renames    atomic.Int64
	fsyncNS            atomic.Int64
	written, readBytes atomic.Int64
}

func newTimingFS(tr *tracer) *timingFS { return &timingFS{inner: guard.OS, tr: tr} }

func (t *timingFS) span(name string) func() {
	if t.tr == nil {
		return func() {}
	}
	id := t.tr.begin(name, t.parent.Load())
	return func() { t.tr.end(id) }
}

func (t *timingFS) wrap(f guard.File, err error) (guard.File, error) {
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t}, nil
}

func (t *timingFS) OpenFile(name string, flag int, perm os.FileMode) (guard.File, error) {
	defer t.span("fs.open")()
	return t.wrap(t.inner.OpenFile(name, flag, perm))
}

func (t *timingFS) Open(name string) (guard.File, error) {
	defer t.span("fs.open")()
	return t.wrap(t.inner.Open(name))
}

func (t *timingFS) Create(name string) (guard.File, error) {
	defer t.span("fs.create")()
	return t.wrap(t.inner.Create(name))
}

func (t *timingFS) CreateTemp(dir, pattern string) (guard.File, error) {
	defer t.span("fs.create")()
	return t.wrap(t.inner.CreateTemp(dir, pattern))
}

func (t *timingFS) ReadFile(name string) ([]byte, error) {
	defer t.span("fs.readfile")()
	b, err := t.inner.ReadFile(name)
	t.readBytes.Add(int64(len(b)))
	return b, err
}

func (t *timingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	defer t.span("fs.writefile")()
	err := t.inner.WriteFile(name, data, perm)
	if err == nil {
		t.written.Add(int64(len(data)))
	}
	return err
}

func (t *timingFS) Rename(oldpath, newpath string) error {
	defer t.span("fs.rename")()
	t.renames.Add(1)
	return t.inner.Rename(oldpath, newpath)
}

func (t *timingFS) Remove(name string) error {
	defer t.span("fs.remove")()
	return t.inner.Remove(name)
}

func (t *timingFS) MkdirAll(path string, perm os.FileMode) error {
	defer t.span("fs.mkdir")()
	return t.inner.MkdirAll(path, perm)
}

type timingFile struct {
	guard.File
	fs *timingFS
}

func (f *timingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.fs.readBytes.Add(int64(n))
	return n, err
}

func (f *timingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.fs.readBytes.Add(int64(n))
	return n, err
}

func (f *timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *timingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	defer f.fs.span("fs.sync")()
	start := time.Now()
	err := f.File.Sync()
	f.fs.fsyncNS.Add(time.Since(start).Nanoseconds())
	f.fs.fsyncs.Add(1)
	return err
}

// runtimeSample holds the runtime/metrics the traced run reports.
type runtimeSample struct {
	schedWait float64 // seconds goroutines spent runnable, not running
	gcCPU     float64 // seconds
	allocB    float64
	gcCycles  float64
}

var runtimeMetricNames = []string{
	"/sched/latencies:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var r runtimeSample
	if ms[0].Value.Kind() == metrics.KindFloat64Histogram {
		// The histogram counts how long goroutines waited; its total is
		// estimated from each bucket's midpoint (the lower bound for
		// the open-ended last bucket).
		h := ms[0].Value.Float64Histogram()
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			var mid float64
			switch {
			case math.IsInf(lo, -1):
			case math.IsInf(hi, 1):
				mid = lo
			default:
				mid = (lo + hi) / 2
			}
			r.schedWait += float64(n) * mid
		}
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = ms[1].Value.Float64()
	}
	if ms[2].Value.Kind() == metrics.KindUint64 {
		r.allocB = float64(ms[2].Value.Uint64())
	}
	if ms[3].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = float64(ms[3].Value.Uint64())
	}
	return r
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
