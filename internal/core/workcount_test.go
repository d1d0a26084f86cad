package core

import (
	"testing"

	"nwcache/internal/machine"
	"nwcache/internal/sim"
)

// The engine's work counts are deterministic, so they are pinned exactly
// for one small fixed-seed cell that swaps through the optical ring: a
// change that adds events, process wakes or coroutine switches fails here
// on any host, however fast.
func TestEngineWorkCountsPinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.3
	cfg.MemPerNode = 20 * cfg.PageSize
	cfg.Seed = 1
	var e *sim.Engine
	c := Cell{App: "gauss", Kind: NWCache, Mode: Optimal,
		Cfg: ApplyPaperMinFree(cfg, NWCache, Optimal),
		Obs: func(_ Cell, m *machine.Machine) { e = m.E }}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapOuts == 0 {
		t.Fatal("the cell no longer swaps out: pick one that does")
	}
	got := [3]uint64{e.Dispatched(), e.WakeHandoffs(), e.ProcSwitches()}
	want := [3]uint64{101317, 87009, 77365}
	if got != want {
		t.Fatalf("dispatched, wake handoffs, proc switches = %v, want %v", got, want)
	}
}
