package sweep

import (
	"fmt"
	"io"
	"strings"

	"nwcache/internal/core"
	"nwcache/internal/stats"
)

// tableMetrics are the per-cell values WriteTables prints, one table
// each per machine kind.
var tableMetrics = []struct {
	name, unit string
	value      func(*core.Result) float64
}{
	{"execution time", "Mpcycles", func(r *core.Result) float64 { return float64(r.ExecTime) / 1e6 }},
	{"average swap-out time", "Kpcycles", func(r *core.Result) float64 { return r.AvgSwapTime / 1e3 }},
}

// colAxis is one grid axis inside an (app, kind) block: its name and
// the rendered value of each point.
type colAxis struct {
	name string
	vals []string
}

// columnAxes lists, in canonical order, the axes that vary within one
// (app, kind) block of the enumeration: mode, seed, each param group
// (named by its param field), fault variant.
func (s *Spec) columnAxes() []colAxis {
	axes := []colAxis{{"mode", stringsOf(s.Modes)}, {"seed", s.seedStrings()}}
	for _, ax := range s.Params {
		axes = append(axes, colAxis{ax.Field, ax.Values})
	}
	return append(axes, colAxis{"fault", stringsOf(s.Faults)})
}

// WriteTables renders a merged sweep (the NDJSON MergeOn writes) as text
// tables. Each machine kind gets one table per metric — execution time
// (Mpcycles), then average swap-out time (Kpcycles) — with the spec's
// applications as rows. The columns cross every other axis that has more
// than one value, in canonical order, headed by the values (joined with
// "/" when several axes vary); single-valued axes are named in the
// title. A cell's coordinates come from its line's grid index, so the
// tables hold for any spec.
func WriteTables(w io.Writer, spec *Spec, merged io.Reader) error {
	total := spec.NumCells()
	results := make([]*core.Result, total)
	err := ReadLines(merged, func(l Line) error {
		if l.Idx < 0 || l.Idx >= total || l.Result == nil {
			return fmt.Errorf("sweep: merged line %d does not fit the %d-cell grid", l.Idx, total)
		}
		results[l.Idx] = l.Result
		return nil
	})
	if err != nil {
		return err
	}
	for idx, r := range results {
		if r == nil {
			return fmt.Errorf("sweep: merged output lacks cell %d", idx)
		}
	}

	axes := spec.columnAxes()
	cols := total / (len(spec.Apps) * len(spec.Kinds))
	headers := make([]string, cols)
	for c := range headers {
		var parts []string
		rest := c
		for i := len(axes) - 1; i >= 0; i-- {
			n := len(axes[i].vals)
			if n > 1 {
				parts = append([]string{axes[i].vals[rest%n]}, parts...)
			}
			rest /= n
		}
		headers[c] = strings.Join(parts, "/")
	}
	var varied, fixed []string
	for _, ax := range axes {
		if len(ax.vals) > 1 {
			varied = append(varied, ax.name)
		} else {
			fixed = append(fixed, ax.name+"="+ax.vals[0])
		}
	}
	name := spec.Name
	if name == "" {
		name = "sweep"
	}
	if len(fixed) > 0 {
		name += " (" + strings.Join(fixed, " ") + ")"
	}
	by := ""
	if len(varied) > 0 {
		by = " by " + strings.Join(varied, " × ")
	}
	for k, kind := range spec.Kinds {
		for _, m := range tableMetrics {
			t := &stats.Table{
				Title:   fmt.Sprintf("Sweep %s, %s machine: %s (%s)%s", name, kind, m.name, m.unit, by),
				Headers: append([]string{"Application"}, headers...),
			}
			if by == "" {
				t.Headers[1] = m.unit
			}
			for a, app := range spec.Apps {
				row := []string{app}
				block := results[(a*len(spec.Kinds)+k)*cols:][:cols]
				for _, r := range block {
					row = append(row, stats.FmtF(m.value(r), 1))
				}
				t.AddRow(row...)
			}
			if _, err := fmt.Fprintln(w, t); err != nil {
				return err
			}
		}
	}
	return nil
}
