package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"nwcache/internal/obs"
)

// TestMain doubles the test binary as the nwsweep CLI: when re-exec'd
// with NWSWEEP_MAIN=1 it runs main() directly, so the exit-code tests
// below exercise the real flag parsing, signal wiring, and os.Exit
// paths without a separate `go build`.
func TestMain(m *testing.M) {
	if os.Getenv("NWSWEEP_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI re-execs the test binary as nwsweep and returns its exit code
// and combined output.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NWSWEEP_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("exec: %v\n%s", err, out)
		}
		return ee.ExitCode(), string(out)
	}
	return 0, string(out)
}

// writeSpec drops a grid spec file in a temp dir and returns its path
// plus a fresh sweep output dir.
func writeSpec(t *testing.T, seeds string) (specPath, dir string) {
	t.Helper()
	root := t.TempDir()
	specPath = filepath.Join(root, "spec.txt")
	spec := "name cli-test\napps gauss\nkinds standard\nmodes naive\nseeds " + seeds + "\nscale 0.05\n"
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	dir = filepath.Join(root, "out")
	return specPath, dir
}

func TestGridExitComplete(t *testing.T) {
	spec, dir := writeSpec(t, "1..1")
	code, out := runCLI(t, "-grid", spec, "-dir", dir, "-q")
	if code != exitOK {
		t.Fatalf("exit = %d, want %d\n%s", code, exitOK, out)
	}
	code, out = runCLI(t, "-grid", spec, "-dir", dir, "-merge", "-shards", "1", "-q")
	if code != exitOK {
		t.Fatalf("merge exit = %d, want %d\n%s", code, exitOK, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "merged.ndjson")); err != nil {
		t.Fatalf("merged output missing: %v", err)
	}
}

func TestGridExitHardError(t *testing.T) {
	spec, dir := writeSpec(t, "1..1")
	// Missing -dir, a nonexistent spec, a malformed shard, a mistyped
	// prefetch mode and an unknown sweep must all take the hard-error
	// path.
	for _, args := range [][]string{
		{"-grid", spec},
		{"-grid", filepath.Join(dir, "nope.txt"), "-dir", dir},
		{"-grid", spec, "-dir", dir, "-shard", "5/2"},
		{"-grid", spec, "-dir", dir, "-shard", "1/2/3"},
		{"-grid", spec, "-dir", dir, "-shard", "0/4x"},
		{"-grid", spec, "-dir", dir, "-prefetch", "optmal"},
		{"-sweep", "nosuch"},
	} {
		code, out := runCLI(t, args...)
		if code != exitHard {
			t.Fatalf("%v: exit = %d, want %d\n%s", args, code, exitHard, out)
		}
	}
}

func TestGridExitIncompleteThenResume(t *testing.T) {
	spec, dir := writeSpec(t, "1..2")
	code, out := runCLI(t, "-grid", spec, "-dir", dir, "-max-cells", "1", "-q")
	if code != exitIncomplete {
		t.Fatalf("capped exit = %d, want %d\n%s", code, exitIncomplete, out)
	}
	code, out = runCLI(t, "-grid", spec, "-dir", dir, "-q")
	if code != exitOK {
		t.Fatalf("resume exit = %d, want %d\n%s", code, exitOK, out)
	}
}

func TestGridExitPoisonedThenRetry(t *testing.T) {
	spec, dir := writeSpec(t, "1..2")
	code, out := runCLI(t, "-grid", spec, "-dir", dir, "-chaos-panic", "seed=2", "-q")
	if code != exitPoisoned {
		t.Fatalf("sabotaged exit = %d, want %d\n%s", code, exitPoisoned, out)
	}
	if !strings.Contains(out, "poisoned") {
		t.Fatalf("missing poison diagnostic:\n%s", out)
	}
	// Without -retry-poison the quarantine holds.
	code, out = runCLI(t, "-grid", spec, "-dir", dir, "-q")
	if code != exitPoisoned {
		t.Fatalf("quarantined exit = %d, want %d\n%s", code, exitPoisoned, out)
	}
	// Retrying without the sabotage hook heals the shard.
	code, out = runCLI(t, "-grid", spec, "-dir", dir, "-retry-poison", "-q")
	if code != exitOK {
		t.Fatalf("retry exit = %d, want %d\n%s", code, exitOK, out)
	}
}

func TestGridChaosFSRunsClean(t *testing.T) {
	spec, dir := writeSpec(t, "1..2")
	plan := filepath.Join(filepath.Dir(spec), "chaos.txt")
	planText := "sync fail nth=2\nwrite short rate=0.2\nread eintr rate=0.1\n"
	if err := os.WriteFile(plan, []byte(planText), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := runCLI(t, "-grid", spec, "-dir", dir,
		"-chaos-fs", plan, "-chaos-seed", "7", "-q")
	if code != exitOK {
		t.Fatalf("chaos exit = %d, want %d\n%s", code, exitOK, out)
	}
	if !strings.Contains(out, "nwsweep: chaos:") {
		t.Fatalf("missing chaos stats line:\n%s", out)
	}
}

// TestSweepSpecsCellCounts checks that every embedded sweep parses and
// enumerates the cells its table layout promises.
func TestSweepSpecsCellCounts(t *testing.T) {
	want := map[string]int{
		"minfree": 70, "diskcache": 70, "ring": 35, "channels": 28,
		"nodes": 56, "wbuf": 56, "drain": 14, "swapdepth": 56,
		"armsched": 28, "prefetch": 42, "baseline": 28,
	}
	names := sweepNames()
	if len(names) != len(want) {
		t.Fatalf("embedded sweeps %v, want the %d in the table", names, len(want))
	}
	for _, name := range names {
		spec, err := loadSweep(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spec.Name != name {
			t.Errorf("%s.grid names itself %q", name, spec.Name)
		}
		if got := spec.NumCells(); got != want[name] {
			t.Errorf("%s: %d cells, want %d", name, got, want[name])
		}
	}
}

// TestSweepOverridesAndResumes runs a named sweep through the CLI twice
// in one directory: the flag overrides shrink it, and the second run
// simulates nothing and prints the same tables.
func TestSweepOverridesAndResumes(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-sweep", "drain", "-apps", "gauss", "-scale", "0.05", "-prefetch", "naive", "-dir", dir, "-q"}
	run := func() (stdout, stderr string) {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "NWSWEEP_MAIN=1")
		var errBuf strings.Builder
		cmd.Stderr = &errBuf
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, errBuf.String())
		}
		return string(out), errBuf.String()
	}
	first, log := run()
	if !strings.Contains(log, "2 cells = 0 state + 0 cache + 2 fresh") {
		t.Fatalf("overrides not applied:\n%s", log)
	}
	if !strings.Contains(first, "mode=naive") || !strings.Contains(first, "gauss") {
		t.Fatalf("tables miss the overridden mode or app:\n%s", first)
	}
	second, log := run()
	if !strings.Contains(log, "+ 0 fresh") {
		t.Fatalf("second run simulated cells:\n%s", log)
	}
	if second != first {
		t.Fatalf("resumed tables differ:\n%s\nvs\n%s", first, second)
	}
}

// TestGridEventsOut runs a 4-cell grid with -events-out and reads the
// file back with obs.ReadEventsNDJSON: the stream a real binary writes
// is numbered contiguously, runs shard.start to shard.done complete,
// settles each cell exactly once, and a warm re-run into the same
// directory replays every cell from STATE without starting any.
func TestGridEventsOut(t *testing.T) {
	spec, dir := writeSpec(t, "1..4")
	run := func(name string) []obs.Event {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		code, out := runCLI(t, "-grid", spec, "-dir", dir, "-events-out", path, "-q")
		if code != exitOK {
			t.Fatalf("exit = %d, want %d\n%s", code, exitOK, out)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		evs, err := obs.ReadEventsNDJSON(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) == 0 {
			t.Fatal("no events written")
		}
		for i, ev := range evs {
			if ev.Seq != int64(i+1) {
				t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
			}
		}
		if first := evs[0]; first.Type != obs.EventShardStart {
			t.Fatalf("first event = %+v, want shard.start", first)
		}
		last := evs[len(evs)-1]
		if last.Type != obs.EventShardDone || last.Reason != "complete" {
			t.Fatalf("last event = %+v, want shard.done complete", last)
		}
		if last.Done != 4 || last.Total != 4 {
			t.Fatalf("final progress %d/%d, want 4/4", last.Done, last.Total)
		}
		settled := map[int]int{}
		for _, ev := range evs {
			switch ev.Type {
			case obs.EventCellDone, obs.EventCellPoisoned, obs.EventCellState, obs.EventCellCache:
				settled[ev.Idx]++
			}
		}
		if len(settled) != 4 {
			t.Fatalf("terminal events cover %d cells, want 4: %v", len(settled), settled)
		}
		for idx, n := range settled {
			if n != 1 {
				t.Fatalf("cell %d has %d terminal events, want 1", idx, n)
			}
		}
		return evs
	}
	count := func(evs []obs.Event, typ string) int {
		n := 0
		for _, ev := range evs {
			if ev.Type == typ {
				n++
			}
		}
		return n
	}

	cold := run("cold.ndjson")
	if got := count(cold, obs.EventCellStart); got != 4 {
		t.Fatalf("cold run started %d cells, want 4", got)
	}
	warm := run("warm.ndjson")
	if got := count(warm, obs.EventCellState); got != 4 {
		t.Fatalf("warm run replayed %d cells from STATE, want 4", got)
	}
	if got := count(warm, obs.EventCellStart); got != 0 {
		t.Fatalf("warm run started %d cells, want 0", got)
	}
}
