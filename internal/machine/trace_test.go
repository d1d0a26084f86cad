package machine_test

import (
	"reflect"
	"testing"

	"nwcache/internal/disk"
	"nwcache/internal/machine"
	"nwcache/internal/obs"
	"nwcache/internal/param"
	"nwcache/internal/workload"
)

// The span trace is the machine's only event record, so every paging
// and ring event it holds must agree exactly with the machine's own
// counters, and recording it must not move the result.
func TestTraceMatchesCounters(t *testing.T) {
	for _, tc := range []struct {
		name    string
		kind    machine.Kind
		mode    disk.PrefetchMode
		minFree int
	}{
		{"nwcache-optimal", machine.NWCache, disk.Optimal, 2},
		{"standard-naive", machine.Standard, disk.Naive, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := param.Default()
			cfg.Scale = 0.3
			cfg.Seed = 1
			cfg.MemPerNode = 20 * cfg.PageSize // memory pressure: swap-outs on every node
			cfg.MinFreeFrames = tc.minFree
			run := func(tr *obs.Trace) (*machine.Machine, *machine.Result) {
				m, err := machine.New(cfg, tc.kind, tc.mode)
				if err != nil {
					t.Fatal(err)
				}
				if tr != nil {
					m.Observe(nil, tr)
				}
				res, err := m.Run(workload.NewGauss(cfg.Scale))
				if err != nil {
					t.Fatal(err)
				}
				return m, res
			}
			tr := obs.NewTrace(0)
			m, res := run(tr)
			if _, plain := run(nil); !reflect.DeepEqual(res, plain) {
				t.Fatalf("recording a trace changed the result:\n traced %+v\nplain  %+v", res, plain)
			}
			if tr.Dropped() != 0 {
				t.Fatalf("trace dropped %d events", tr.Dropped())
			}

			n := make(map[string]uint64)
			for _, s := range tr.Spans() {
				n[s.Name]++
			}
			for _, in := range tr.Instants() {
				n[in.Name]++
			}
			var drained, nacks uint64
			for _, f := range m.Ifaces {
				if f != nil {
					drained += f.Drained
				}
			}
			for _, d := range m.Disks {
				if d != nil {
					nacks += d.WritesNACK
				}
			}
			if res.SwapOuts == 0 || res.Faults == 0 {
				t.Fatalf("cell does not page (faults %d, swap-outs %d): pick one under memory pressure", res.Faults, res.SwapOuts)
			}
			for _, c := range []struct {
				what      string
				got, want uint64
			}{
				{"fault.disk+fault.ring spans vs faults", n["fault.disk"] + n["fault.ring"], res.Faults},
				{"fault.ring spans vs ring hits", n["fault.ring"], res.RingHits},
				{"swap.disk+swap.ring spans vs swap-outs", n["swap.disk"] + n["swap.ring"], res.SwapOuts},
				{"evict.clean instants vs clean evictions", n["evict.clean"], res.CleanEvicts},
				{"ring.drain spans vs interface drains", n["ring.drain"], drained},
				{"ring.insert vs ring.release instants", n["ring.insert"], n["ring.release"]},
				{"swap.nack spans vs disk NACKs", n["swap.nack"], nacks},
			} {
				if c.got != c.want {
					t.Errorf("%s: %d, want %d", c.what, c.got, c.want)
				}
			}
			if tc.kind == machine.NWCache {
				if n["ring.victim"] == 0 || n["fault.wait"] == 0 || n["ring.drain"] == 0 {
					t.Errorf("cell misses a ring path: victim %d, wait %d, drain %d",
						n["ring.victim"], n["fault.wait"], n["ring.drain"])
				}
				if n["ring.insert"] != res.SwapOuts {
					t.Errorf("ring.insert %d, want one per swap-out (%d)", n["ring.insert"], res.SwapOuts)
				}
			} else if n["swap.nack"] == 0 || n["ring.insert"] != 0 {
				t.Errorf("standard cell: swap.nack %d (want > 0), ring.insert %d (want 0)", n["swap.nack"], n["ring.insert"])
			}
		})
	}
}
