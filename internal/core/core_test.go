package core

import (
	"testing"
)

// fastCfg shrinks the machine and workload for quick end-to-end tests.
func fastCfg() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.1
	cfg.MemPerNode = 16 * cfg.PageSize
	return cfg
}

func TestRunKnownApp(t *testing.T) {
	res, err := Run("sor", NWCache, Naive, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "sor" || res.Kind != NWCache || res.Mode != "naive" {
		t.Fatalf("result identity %q/%v/%q", res.App, res.Kind, res.Mode)
	}
	if res.ExecTime <= 0 {
		t.Fatal("no execution time")
	}
}

func TestRunUnknownAppErrors(t *testing.T) {
	if _, err := Run("nosuch", Standard, Naive, fastCfg()); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestRunInvalidConfigErrors(t *testing.T) {
	cfg := fastCfg()
	cfg.MinFreeFrames = 0
	if _, err := Run("sor", Standard, Naive, cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestAppsListsSeven(t *testing.T) {
	apps := Apps()
	if len(apps) != 7 {
		t.Fatalf("%d apps, want 7", len(apps))
	}
	for _, name := range apps {
		if _, err := NewProgram(name, fastCfg()); err != nil {
			t.Fatalf("NewProgram(%q): %v", name, err)
		}
	}
}

func TestPaperMinFree(t *testing.T) {
	cases := []struct {
		kind Kind
		mode PrefetchMode
		want int
	}{
		{Standard, Optimal, 12},
		{Standard, Naive, 4},
		{NWCache, Optimal, 2},
		{NWCache, Naive, 2},
	}
	for _, c := range cases {
		if got := PaperMinFree(c.kind, c.mode); got != c.want {
			t.Errorf("PaperMinFree(%v,%v) = %d, want %d", c.kind, c.mode, got, c.want)
		}
		cfg := ApplyPaperMinFree(DefaultConfig(), c.kind, c.mode)
		if cfg.MinFreeFrames != c.want {
			t.Errorf("ApplyPaperMinFree(%v,%v) left %d", c.kind, c.mode, cfg.MinFreeFrames)
		}
	}
}

func TestRoundRobinDrainBothSettings(t *testing.T) {
	for _, rr := range []bool{false, true} {
		cfg := fastCfg()
		cfg.RoundRobinDrain = rr
		res, err := Run("sor", NWCache, Naive, cfg)
		if err != nil {
			t.Fatalf("rr=%v: %v", rr, err)
		}
		if res.ExecTime <= 0 {
			t.Fatalf("rr=%v: empty result", rr)
		}
	}
}

// TestCellKeyPinned pins one default cell's key: keys address every
// sweep cache and STATE file, so a change to the key's inputs (or to the
// config's JSON form) must be deliberate.
func TestCellKeyPinned(t *testing.T) {
	c := Cell{App: "gauss", Kind: NWCache, Mode: Optimal,
		Cfg: ApplyPaperMinFree(DefaultConfig(), NWCache, Optimal)}
	const want = "ddf784f5ac263592e0cdfb9baab5948f275c5e9e4629a9128c6cfbf636e6de6c"
	if got := c.Key(); got != want {
		t.Fatalf("Key = %s, want %s", got, want)
	}
	c.Cfg.RoundRobinDrain = true
	if c.Key() == want {
		t.Fatal("round-robin drain does not change the key")
	}
}

func TestNewMachineExposesSubstrates(t *testing.T) {
	m, err := NewMachine(fastCfg(), NWCache, Optimal)
	if err != nil {
		t.Fatal(err)
	}
	if m.Ring == nil {
		t.Fatal("NWCache machine without ring")
	}
	disks := 0
	for _, d := range m.Disks {
		if d != nil {
			disks++
		}
	}
	if disks != fastCfg().IONodes {
		t.Fatalf("%d disks, want %d", disks, fastCfg().IONodes)
	}
	std, err := NewMachine(fastCfg(), Standard, Optimal)
	if err != nil {
		t.Fatal(err)
	}
	if std.Ring != nil {
		t.Fatal("standard machine grew a ring")
	}
}

func TestRunSeedsAggregates(t *testing.T) {
	cfg := fastCfg()
	agg, err := RunSeeds("radix", NWCache, Naive, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != 3 {
		t.Fatalf("runs %d", agg.Runs)
	}
	if agg.MinExec <= 0 || agg.MaxExec < agg.MinExec {
		t.Fatalf("exec range [%d,%d]", agg.MinExec, agg.MaxExec)
	}
	if agg.MeanExec < float64(agg.MinExec) || agg.MeanExec > float64(agg.MaxExec) {
		t.Fatalf("mean %f outside [%d,%d]", agg.MeanExec, agg.MinExec, agg.MaxExec)
	}
	if agg.Spread() < 0 {
		t.Fatalf("spread %f", agg.Spread())
	}
}

func TestRunSeedsSeedInvariantApp(t *testing.T) {
	// SOR has no randomized pattern: all seeds give identical runs.
	agg, err := RunSeeds("sor", Standard, Naive, fastCfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if agg.MinExec != agg.MaxExec {
		t.Fatalf("sor varied across seeds: [%d,%d]", agg.MinExec, agg.MaxExec)
	}
	if agg.Spread() != 0 {
		t.Fatalf("spread %f", agg.Spread())
	}
}

func TestRunSeedsPropagatesErrors(t *testing.T) {
	if _, err := RunSeeds("nosuch", Standard, Naive, fastCfg(), 2); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestPaperCellsHoldInvariants runs every paper configuration — each
// application on both machines under both prefetch extremes, with the
// paper's free-frame floors — under memory pressure and requires the
// machine's end-of-run invariants (single-copy residency, ring linkage,
// frame conservation, quiescence) to hold.
func TestPaperCellsHoldInvariants(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.25
	cfg.Seed = 1
	cfg.MemPerNode = 20 * cfg.PageSize
	var cells, swapping int
	for _, app := range Apps() {
		for _, kind := range []Kind{Standard, NWCache} {
			for _, mode := range []PrefetchMode{Naive, Optimal} {
				c := ApplyPaperMinFree(cfg, kind, mode)
				prog, err := NewProgram(app, c)
				if err != nil {
					t.Fatal(err)
				}
				m, err := NewMachine(c, kind, mode)
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run(prog)
				if err != nil {
					t.Fatalf("%s %v/%v: %v", app, kind, mode, err)
				}
				if err := m.CheckInvariants(true); err != nil {
					t.Errorf("%s %v/%v: %v", app, kind, mode, err)
				}
				cells++
				if res.SwapOuts > 0 {
					swapping++
				}
			}
		}
	}
	if cells != 28 {
		t.Fatalf("checked %d cells, want the paper's 28", cells)
	}
	if swapping == 0 {
		t.Fatal("no cell swapped out: the ring and swap checks saw no traffic")
	}
	t.Logf("%d of %d cells swapped out", swapping, cells)
}
