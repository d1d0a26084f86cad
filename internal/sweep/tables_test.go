package sweep

import (
	"bytes"
	"strings"
	"testing"

	"nwcache/internal/stats"
)

func TestWriteTablesFromMergedSweep(t *testing.T) {
	s, err := ParseSpec("name tables\napps gauss,sor\nkinds standard,nwcache\nmodes optimal\nscale 0.05\nparam SwapQueueDepth 1,4\n")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	runSweep(t, s, dir, 1, 0)
	merged, _, _ := MergedPaths(dir)
	blob := readFileT(t, merged)
	var out bytes.Buffer
	if err := WriteTables(&out, s, bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}

	// Two kinds x (exec, swap) tables, in that order.
	blocks := strings.Split(strings.TrimSpace(out.String()), "\n\n")
	if len(blocks) != 4 {
		t.Fatalf("%d tables, want 4:\n%s", len(blocks), out.String())
	}
	type cellVals struct{ exec, swap string }
	printed := map[string]cellVals{} // "kind/app/col" -> values
	for b, block := range blocks {
		lines := strings.Split(block, "\n")
		kind := []string{"standard", "nwcache"}[b/2]
		metric := []string{"execution time (Mpcycles)", "average swap-out time (Kpcycles)"}[b%2]
		title := "Sweep tables (mode=optimal seed=1 fault=none), " + kind + " machine: " + metric + " by SwapQueueDepth"
		if lines[0] != title {
			t.Fatalf("table %d title %q, want %q", b, lines[0], title)
		}
		if h := strings.Fields(lines[1]); strings.Join(h, " ") != "Application 1 4" {
			t.Fatalf("table %d headers %q", b, h)
		}
		if len(lines) != 5 {
			t.Fatalf("table %d has %d lines, want title, header, rule and 2 rows", b, len(lines))
		}
		for r, app := range []string{"gauss", "sor"} {
			row := strings.Fields(lines[3+r])
			if len(row) != 3 || row[0] != app {
				t.Fatalf("table %d row %d = %q, want %s and 2 values", b, r, row, app)
			}
			for c, col := range []string{"1", "4"} {
				key := kind + "/" + app + "/" + col
				v := printed[key]
				if b%2 == 0 {
					v.exec = row[1+c]
				} else {
					v.swap = row[1+c]
				}
				printed[key] = v
			}
		}
	}

	// Every record's values appear at the coordinates its grid index
	// names: app outermost, then kind, then the SwapQueueDepth axis.
	lines := 0
	if err := ReadLines(bytes.NewReader(blob), func(l Line) error {
		lines++
		key := l.Kind + "/" + l.App + "/" + []string{"1", "4"}[l.Idx%2]
		want := cellVals{
			exec: stats.FmtF(float64(l.Result.ExecTime)/1e6, 1),
			swap: stats.FmtF(l.Result.AvgSwapTime/1e3, 1),
		}
		if got := printed[key]; got != want {
			t.Errorf("cell %d (%s): printed %+v, record says %+v", l.Idx, key, got, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if lines != s.NumCells() {
		t.Fatalf("merged %d lines, want %d", lines, s.NumCells())
	}
}

func TestWriteTablesRejectsIncompleteInput(t *testing.T) {
	s, err := ParseSpec("apps gauss\nkinds standard\nmodes naive,optimal\nscale 0.05\n")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	runSweep(t, s, dir, 1, 0)
	merged, _, _ := MergedPaths(dir)
	first, _, _ := bytes.Cut(readFileT(t, merged), []byte("\n"))
	if err := WriteTables(&bytes.Buffer{}, s, bytes.NewReader(first)); err == nil {
		t.Fatal("a merged output missing a cell was rendered")
	}
}
