// Package report renders observability artifacts (manifests, series,
// traces) as self-contained HTML fragments — inline CSS + SVG, no
// network, no JS. It is the rendering layer beneath cmd/nwreport and
// holds the one trace analyzer, SummarizeTrace.
package report

import (
	"fmt"
	"html"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"nwcache/internal/obs"
)

// ErrWriter latches the first write error so the HTML emitters can stay
// unconditional.
type ErrWriter struct {
	W   io.Writer
	Err error
}

func (e *ErrWriter) Write(p []byte) (int, error) {
	if e.Err != nil {
		return len(p), nil
	}
	var n int
	n, e.Err = e.W.Write(p)
	if e.Err != nil {
		return len(p), nil
	}
	return n, nil
}

// Header opens the document: doctype, inline stylesheet, and an <h1>
// with the given title.
func Header(w io.Writer, title string) {
	fmt.Fprintf(w, `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>%s</title>
<style>
body{font:14px/1.45 -apple-system,"Segoe UI",sans-serif;margin:2em auto;max-width:72em;padding:0 1em;color:#1a202c}
h1{font-size:1.5em}h2{font-size:1.15em;margin-top:2em;border-bottom:1px solid #e2e8f0;padding-bottom:.25em}
h3{font-size:1em;margin:1.2em 0 .4em}
table{border-collapse:collapse;margin:.6em 0}
th,td{border:1px solid #e2e8f0;padding:.25em .6em;text-align:right;font-variant-numeric:tabular-nums}
th{background:#f7fafc;text-align:center}
td:first-child,th:first-child{text-align:left;font-family:ui-monospace,monospace;font-size:.92em}
.up{color:#c53030}.down{color:#2f855a}.muted{color:#718096}
.spark{vertical-align:middle}
code{font-family:ui-monospace,monospace;font-size:.92em;background:#f7fafc;padding:0 .25em}
</style></head><body>
<h1>%s</h1>
`, html.EscapeString(title), html.EscapeString(title))
}

// Footer closes the document opened by Header.
func Footer(w io.Writer) {
	fmt.Fprintln(w, "</body></html>")
}

// FmtNum renders a quantity compactly (integers without decimals, NaN
// as a dash).
func FmtNum(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// ManifestTable renders one row per manifest (named by the parallel
// names slice): tool, workload, scale, and the output digest.
func ManifestTable(w io.Writer, mans []*obs.Manifest, names []string) {
	fmt.Fprintln(w, "<h2>Runs</h2><table><tr><th>manifest</th><th>tool</th><th>workload</th><th>seed</th><th>runs</th><th>sim Mpcycles</th><th>wall ms</th><th>metrics</th><th>spans</th><th>digest</th></tr>")
	for i, m := range mans {
		workload := m.App
		if m.Machine != "" {
			workload += "/" + m.Machine
		}
		if m.Prefetch != "" {
			workload += "/" + m.Prefetch
		}
		if workload == "" {
			workload = "-"
		}
		runs := m.Runs
		if runs == 0 {
			runs = 1
		}
		digest := m.Digest
		if len(digest) > 23 {
			digest = digest[:23] + "…"
		}
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%.2f</td><td>%.1f</td><td>%d</td><td>%d</td><td><code>%s</code></td></tr>\n",
			html.EscapeString(names[i]), html.EscapeString(m.Tool), html.EscapeString(workload),
			m.Seed, runs, float64(m.SimPcycles)/1e6, float64(m.WallNS)/1e6,
			len(m.Metrics), m.TraceSpans, html.EscapeString(digest))
	}
	fmt.Fprintln(w, "</table>")
}

// SparkPoints is the sparkline resolution: series are downsampled to at
// most this many points before rendering.
const SparkPoints = 160

// SVGSpark renders points as an inline SVG polyline sparkline.
func SVGSpark(pts [][2]float64) string {
	const W, H = 220.0, 30.0
	if len(pts) == 0 {
		return "<span class=muted>empty</span>"
	}
	x0, x1 := pts[0][0], pts[len(pts)-1][0]
	lo, hi := pts[0][1], pts[0][1]
	for _, p := range pts {
		if p[1] < lo {
			lo = p[1]
		}
		if p[1] > hi {
			hi = p[1]
		}
	}
	xs := x1 - x0
	if xs <= 0 {
		xs = 1
	}
	ys := hi - lo
	if ys <= 0 {
		ys = 1
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg class=spark width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f"><polyline fill="none" stroke="#3182ce" stroke-width="1.2" points="`, W, H, W, H)
	for i, p := range pts {
		x := (p[0] - x0) / xs * (W - 2)
		y := (H - 2) - (p[1]-lo)/ys*(H-4)
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%.1f,%.1f", x+1, y)
	}
	sb.WriteString(`"/></svg>`)
	return sb.String()
}

// SeriesSection renders every run's series as a table of min/max/last
// values with trend sparklines, grouped by run name.
func SeriesSection(w io.Writer, series []obs.SeriesData) {
	byRun := make(map[string][]obs.SeriesData)
	var runs []string
	for _, s := range series {
		if _, ok := byRun[s.Run]; !ok {
			runs = append(runs, s.Run)
		}
		byRun[s.Run] = append(byRun[s.Run], s)
	}
	sort.Strings(runs)
	fmt.Fprintln(w, "<h2>Time series</h2>")
	for _, run := range runs {
		title := run
		if title == "" {
			title = "(single run)"
		}
		fmt.Fprintf(w, "<h3>%s</h3>\n", html.EscapeString(title))
		fmt.Fprintln(w, "<table><tr><th>metric</th><th>kind</th><th>points</th><th>last</th><th>min</th><th>max</th><th>trend</th></tr>")
		group := byRun[run]
		sort.Slice(group, func(i, j int) bool { return group[i].Name < group[j].Name })
		for _, s := range group {
			if len(s.Points) == 0 {
				continue
			}
			factor := (len(s.Points) + SparkPoints - 1) / SparkPoints
			ds := s.Downsample(factor)
			lo, hi := s.Points[0][1], s.Points[0][1]
			for _, p := range s.Points {
				if p[1] < lo {
					lo = p[1]
				}
				if p[1] > hi {
					hi = p[1]
				}
			}
			fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
				html.EscapeString(s.Name), s.Kind, len(s.Points),
				FmtNum(s.Points[len(s.Points)-1][1]), FmtNum(lo), FmtNum(hi),
				SVGSpark(ds.Points))
		}
		fmt.Fprintln(w, "</table>")
	}
}
