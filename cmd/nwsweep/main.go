// Command nwsweep runs the parameter-sensitivity experiments of §5 and the
// design-choice ablations and extensions of DESIGN.md's experiment index.
// Each one is a grid spec (see internal/sweep) checked in as
// sweeps/NAME.grid and embedded in the binary:
//
//	-sweep minfree    minimum-free-frames sensitivity (the paper's first
//	                  §5 experiment: best floor per machine/prefetch)
//	-sweep diskcache  disk controller cache size on both machines (the
//	                  paper's "huge disk cache needed to approach the
//	                  NWCache" observation)
//	-sweep ring       optical storage per channel (NWCache capacity)
//	-sweep channels   OTDM multi-channel extension (§4)
//	-sweep nodes      machine-size scaling (4..32 nodes)
//	-sweep wbuf       Figure 1's coalescing write buffer depths
//	-sweep drain      drain policy: most-loaded vs round-robin (ablation)
//	-sweep swapdepth  outstanding swap-outs per node (ablation)
//	-sweep armsched   disk arm FCFS vs read-priority scheduling
//	-sweep prefetch   naive vs streamed vs optimal prefetching
//	-sweep baseline   Standard vs DCD (§6) vs NWCache, with and without DCD
//
// -sweep NAME runs the spec as shard 0/1 in -dir (a temporary directory
// when -dir is empty), merges it, and prints two tables per machine
// kind: execution time (Mpcycles) and average swap-out time (Kpcycles),
// one row per application and one column per point of the swept axes.
// With -dir (or -cache) a repeated sweep resumes and re-runs nothing it
// has already simulated. -apps, -scale, -seed and -prefetch, when given,
// overwrite the spec's apps, scale, seeds and prefetch modes; this holds
// for -grid too.
//
// Scale-out grid mode (-grid) runs any spec file shard-by-shard with
// checkpoint/resume and a content-addressed result cache. A copy of a
// sweeps/*.grid file works here, sharding included:
//
//	nwsweep -grid spec.txt -dir out/ -shard 0/4     # run one shard
//	nwsweep -grid spec.txt -dir out/ -merge -shards 4
//
// A shard killed mid-sweep resumes exactly where it stopped (the STATE
// file in -dir is replayed); re-running a completed shard — or an
// overlapping sweep sharing the same -cache directory — executes zero
// fresh cells. -max-cells caps fresh simulations per invocation.
// -merge streams the shard outputs into merged.ndjson +
// merged.manifest.json (+ merged.series.ndjson when the spec samples
// series), which are byte-identical however the sweep was interrupted
// or sharded.
//
// # Supervision
//
// -cell-budget and -cell-stall arm a per-cell watchdog: a cell that
// exceeds its wall-clock budget, or whose simulated clock stops
// advancing for the stall window, is aborted and quarantined as a
// STATE poison record — as is a cell that panics. The shard keeps
// going; a later run with -retry-poison re-admits quarantined cells.
// SIGINT/SIGTERM drain gracefully: the shard stops admitting cells,
// finishes and checkpoints what is in flight, and exits resumable; a
// second signal kills immediately with code 128+signal.
//
// -chaos-fs injects seeded host filesystem faults (see
// internal/guard's chaos plans) under the sweep directory, and
// -chaos-panic makes matching cells panic — both exist so CI can
// prove the supervision layer end to end.
//
// # Exit codes
//
//	0  the shard (or merge) completed
//	1  hard error: bad flags, corrupt inputs, terminal I/O failure
//	3  incomplete but resumable: -max-cells budget spent, or a
//	   signal drained the shard; invoke again to continue
//	4  every cell has a STATE record but poisoned cells remain;
//	   re-run with -retry-poison (or fix the cell) to clear them
//
//	128+signal  a second SIGINT/SIGTERM forced an immediate exit
package main

import (
	"bufio"
	"embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"nwcache/internal/core"
	"nwcache/internal/exp/pool"
	"nwcache/internal/guard"
	"nwcache/internal/obs"
	"nwcache/internal/sweep"
)

// Exit codes, also documented in the package comment.
const (
	exitOK         = 0
	exitHard       = 1
	exitIncomplete = 3
	exitPoisoned   = 4
)

// sweepFiles holds the named sweeps' grid specs.
//
//go:embed sweeps/*.grid
var sweepFiles embed.FS

func main() {
	var (
		sweepName = flag.String("sweep", "minfree", "named sweep to run and print as tables: "+strings.Join(sweepNames(), " | "))
		scale     = flag.Float64("scale", 1.0, "workload scale (overrides the spec's when given)")
		seed      = flag.Int64("seed", 1, "simulation seed (overrides the spec's seeds when given)")
		apps      = flag.String("apps", "", "comma-separated app subset (overrides the spec's apps when given)")
		prefetch  = flag.String("prefetch", "optimal", "prefetch mode: naive, streamed or optimal (overrides the spec's modes when given)")
		quiet     = flag.Bool("q", false, "suppress progress output")
		jobs      = flag.Int("j", runtime.GOMAXPROCS(0), "max simulations to run concurrently")
		cacheDir  = flag.String("cache", "", "content-addressed result cache directory (default: <dir>/cache)")

		gridSpec = flag.String("grid", "", "grid spec file: run in scale-out sweep mode (see internal/sweep)")
		dir      = flag.String("dir", "", "sweep output directory (required with -grid; -sweep defaults to a temporary one)")
		shard    = flag.String("shard", "0/1", "shard to run, i/n (grid mode)")
		maxCells = flag.Int("max-cells", 0, "cap fresh simulations this invocation; exit 3 while incomplete")
		merge    = flag.Bool("merge", false, "merge completed shard outputs instead of running (grid mode)")
		shards   = flag.Int("shards", 1, "total shard count for -merge")
		events   = flag.String("events-out", "", "write the shard's lifecycle event stream to this NDJSON file")

		cellBudget  = flag.Duration("cell-budget", 0, "wall-clock budget per cell; over-budget cells are aborted and quarantined (0 = unlimited)")
		cellStall   = flag.Duration("cell-stall", 0, "abort a cell whose simulated clock stops advancing for this long (0 = never)")
		retryPoison = flag.Bool("retry-poison", false, "re-admit cells quarantined by an earlier run's poison records")
		ioRetries   = flag.Int("io-retries", 0, "attempts per transient host I/O fault before giving up (0 = guard default)")
		chaosFS     = flag.String("chaos-fs", "", "chaos plan file: inject seeded host filesystem faults under -dir (see internal/guard)")
		chaosSeed   = flag.Uint64("chaos-seed", 1, "seed for the -chaos-fs fault stream")
		chaosPanic  = flag.String("chaos-panic", "", "panic cells whose label (plus ' seed=N') contains this substring (supervision test hook)")
	)
	flag.Parse()

	var spec *sweep.Spec
	var err error
	if *gridSpec != "" {
		spec, err = sweep.ParseSpecFile(*gridSpec)
	} else {
		spec, err = loadSweep(*sweepName)
	}
	if err == nil {
		err = overrideSpec(spec, *apps, *scale, *seed, *prefetch)
	}
	if err != nil {
		fatal(err)
	}

	o := gridOpts{
		dir: *dir, shardSpec: *shard, cacheDir: *cacheDir,
		jobs: *jobs, maxCells: *maxCells, shards: *shards,
		doMerge: *merge, quiet: *quiet, eventsOut: *events,
		cellBudget: *cellBudget, cellStall: *cellStall, retryPoison: *retryPoison,
		ioRetries: *ioRetries,
		chaosFS:   *chaosFS, chaosSeed: *chaosSeed, chaosPanic: *chaosPanic,
	}
	tmp := ""
	if *gridSpec == "" {
		// A named sweep is one shard, merged and printed as tables.
		o.shardSpec, o.doMerge, o.tables = "0/1", false, true
		if o.dir == "" {
			if tmp, err = os.MkdirTemp("", "nwsweep-"); err != nil {
				fatal(err)
			}
			o.dir = tmp
		}
	}
	code := runGrid(spec, o)
	if tmp != "" {
		os.RemoveAll(tmp)
	}
	os.Exit(code)
}

// sweepNames lists the embedded sweeps.
func sweepNames() []string {
	files, _ := fs.Glob(sweepFiles, "sweeps/*.grid")
	for i, f := range files {
		files[i] = strings.TrimSuffix(path.Base(f), ".grid")
	}
	return files
}

// loadSweep parses the embedded spec of a named sweep.
func loadSweep(name string) (*sweep.Spec, error) {
	text, err := sweepFiles.ReadFile("sweeps/" + name + ".grid")
	if err != nil {
		return nil, fmt.Errorf("unknown sweep %q (have %s)", name, strings.Join(sweepNames(), ", "))
	}
	return sweep.ParseSpec(string(text))
}

// overrideSpec applies the -apps, -scale, -seed and -prefetch flags
// given on the command line to the loaded spec, then revalidates it.
func overrideSpec(spec *sweep.Spec, apps string, scale float64, seed int64, prefetch string) error {
	var err error
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "apps":
			spec.Apps = strings.Split(apps, ",")
		case "scale":
			spec.Scale = scale
		case "seed":
			spec.Seeds = []int64{seed}
		case "prefetch":
			var mode core.PrefetchMode
			if mode, err = core.ParseMode(prefetch); err == nil {
				spec.Modes = []core.PrefetchMode{mode}
			}
		}
	})
	if err != nil {
		return err
	}
	return spec.Validate()
}

// gridOpts carries the run's flag values.
type gridOpts struct {
	dir, shardSpec, cacheDir string
	jobs, maxCells, shards   int
	doMerge, quiet           bool
	eventsOut                string
	// tables merges a completed shard 0/1 and prints the spec's tables.
	tables bool

	cellBudget, cellStall time.Duration
	retryPoison           bool
	ioRetries             int
	chaosFS               string
	chaosSeed             uint64
	chaosPanic            string
}

// runGrid runs one shard of a grid spec with checkpoint/resume (or, with
// doMerge, streams completed shard outputs into the merged artifacts;
// with tables, merges the finished single shard and prints its tables).
// Returns the process exit code (see the package comment's taxonomy).
func runGrid(spec *sweep.Spec, o gridOpts) int {
	if o.dir == "" {
		return hard(fmt.Errorf("grid mode needs -dir"))
	}

	// Optional chaos filesystem, scoped to the sweep directory so the
	// injected faults can never touch unrelated host files.
	var fsys guard.FS
	if o.chaosFS != "" {
		raw, err := os.ReadFile(o.chaosFS)
		if err != nil {
			return hard(err)
		}
		plan, err := guard.ParseChaos(string(raw))
		if err != nil {
			return hard(fmt.Errorf("%s: %w", o.chaosFS, err))
		}
		cfs := guard.NewChaosFS(nil, plan, o.chaosSeed, o.dir)
		defer func() {
			st := cfs.Stats()
			fmt.Fprintf(os.Stderr,
				"nwsweep: chaos: %d/%d syncs, %d/%d writes (%d torn, %d enospc), %d/%d reads, %d/%d renames faulted\n",
				st.SyncFails, st.Syncs, st.ShortWrites+st.ENOSPCs, st.Writes, st.ShortWrites, st.ENOSPCs,
				st.ReadFails, st.Reads, st.RenameFails, st.Renames)
		}()
		fsys = cfs
	}

	if o.doMerge {
		cells, err := sweep.MergeOn(fsys, nil, spec, o.dir, o.shards, os.Stdout)
		if err != nil {
			return hard(err)
		}
		if !o.quiet {
			fmt.Fprintf(os.Stderr, "nwsweep: merged %d cells from %d shards\n", cells, o.shards)
		}
		return exitOK
	}
	i, n, err := parseShard(o.shardSpec)
	if err != nil {
		return hard(err)
	}

	// Graceful drain: the first SIGINT/SIGTERM stops cell admission —
	// in-flight cells finish and checkpoint, the shard exits resumable
	// (code 3). A second signal kills immediately with 128+signal.
	var draining atomic.Bool
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		draining.Store(true)
		fmt.Fprintf(os.Stderr, "nwsweep: %v — draining (signal again to kill)\n", sig)
		sig = <-sigc
		fmt.Fprintf(os.Stderr, "nwsweep: %v — killed\n", sig)
		if s, ok := sig.(syscall.Signal); ok {
			os.Exit(128 + int(s))
		}
		os.Exit(exitHard)
	}()

	r := &sweep.Runner{
		Spec:        spec,
		Shard:       i,
		Shards:      n,
		Dir:         o.dir,
		Pool:        pool.New(o.jobs),
		CacheDir:    o.cacheDir,
		MaxFresh:    o.maxCells,
		FS:          fsys,
		Guard:       guard.CellGuard{Budget: o.cellBudget, Stall: o.cellStall},
		RetryPoison: o.retryPoison,
		Draining:    draining.Load,
		OnPoison: func(c core.Cell, reason string) {
			fmt.Fprintf(os.Stderr, "nwsweep: poisoned %s: %s\n", c.Label(), reason)
		},
	}
	if o.eventsOut != "" {
		// The shard's lifecycle events as an NDJSON file, the format
		// obs.ReadEventsNDJSON reads: seqs are stamped here, in
		// emission order.
		ef, err := os.Create(o.eventsOut)
		if err != nil {
			return hard(err)
		}
		bw := bufio.NewWriter(ef)
		enc := json.NewEncoder(bw)
		var seq int64
		r.OnEvent = func(ev obs.Event) {
			seq++
			ev.Seq = seq
			enc.Encode(ev) //nolint:errcheck // flush error is checked below
		}
		defer func() {
			if err := bw.Flush(); err == nil {
				err = ef.Close()
				if err != nil {
					fmt.Fprintf(os.Stderr, "nwsweep: writing %s: %v\n", o.eventsOut, err)
				}
			} else {
				ef.Close()
				fmt.Fprintf(os.Stderr, "nwsweep: writing %s: %v\n", o.eventsOut, err)
			}
		}()
	}
	if o.ioRetries > 0 {
		// A wider budget than the guard default: chaos plans (and
		// genuinely flaky filesystems) can burn several attempts on one
		// deterministic fault window before the first clean try.
		pol := guard.DefaultRetryPolicy(0)
		pol.Max = o.ioRetries
		r.Retry = guard.NewRetrier(pol)
	}
	if o.chaosPanic != "" {
		r.Sabotage = func(c core.Cell) bool {
			return strings.Contains(fmt.Sprintf("%s seed=%d", c.Label(), c.Cfg.Seed), o.chaosPanic)
		}
	}
	if !o.quiet {
		r.Progress = func(label string) {
			fmt.Fprintf(os.Stderr, "running %s...\n", label)
		}
	}
	sum, err := r.Run()
	fmt.Fprintf(os.Stderr, "nwsweep: %s\n", sum)
	switch {
	case errors.Is(err, sweep.ErrIncomplete):
		return exitIncomplete
	case errors.Is(err, sweep.ErrPoisoned):
		fmt.Fprintln(os.Stderr, "nwsweep:", err)
		return exitPoisoned
	case err != nil:
		return hard(err)
	}
	if !o.tables {
		return exitOK
	}
	if _, err := sweep.MergeOn(fsys, nil, spec, o.dir, 1, nil); err != nil {
		return hard(err)
	}
	merged, _, _ := sweep.MergedPaths(o.dir)
	f, err := guard.Or(fsys).Open(merged)
	if err != nil {
		return hard(err)
	}
	defer f.Close()
	out := bufio.NewWriter(os.Stdout)
	if err := sweep.WriteTables(out, spec, f); err != nil {
		return hard(err)
	}
	if err := out.Flush(); err != nil {
		return hard(err)
	}
	return exitOK
}

// parseShard decodes "i/n".
func parseShard(s string) (i, n int, err error) {
	a, b, ok := strings.Cut(s, "/")
	i, errI := strconv.Atoi(a)
	n, errN := strconv.Atoi(b)
	if !ok || errI != nil || errN != nil {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/n)", s)
	}
	if n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("bad -shard %q: index out of range", s)
	}
	return i, n, nil
}

// hard reports a hard error and returns its exit code.
func hard(err error) int {
	fmt.Fprintln(os.Stderr, "nwsweep:", err)
	return exitHard
}

func fatal(err error) {
	os.Exit(hard(err))
}
