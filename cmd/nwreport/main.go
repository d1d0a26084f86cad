// Command nwreport turns observability artifacts — run manifests
// (-manifest-out), time-series telemetry (-series-out), Chrome traces
// (-trace-out) — into a single self-contained HTML report, and compares
// two manifests for cross-run regressions.
//
// Usage:
//
//	nwreport -html report.html -manifest m.json [-manifest m2.json]
//	         [-series s.ndjson]... [-trace t.json]... [-cells sweep.ndjson]...
//	nwreport -diff old.json new.json [-threshold 5]
//
// Report mode renders a manifest summary table, a metric delta table
// when exactly two manifests are given, per-run metric sparklines from
// every series file, a summary of every trace file (span latencies,
// event counts, ring occupancy, hottest pages: report.SummarizeTrace),
// and — for each -cells input (an nwsweep shard or merged NDJSON) — a
// sweep cell table. The output embeds everything (inline CSS + SVG); no
// network, no JS.
//
// Diff mode compares two manifests metric by metric and exits 1 when
// any metric moved by more than -threshold percent (or is missing from
// one side). With -threshold 0 the stdout digests must also match
// byte-for-byte, which makes it a determinism check between runs.
package main

import (
	"flag"
	"fmt"
	"html"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"nwcache/internal/obs"
	"nwcache/internal/report"
	"nwcache/internal/sweep"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var (
		manifests multiFlag
		seriesFs  multiFlag
		traceFs   multiFlag
		cellFs    multiFlag
		htmlOut   = flag.String("html", "", "write the HTML report to this file")
		diffMode  = flag.Bool("diff", false, "compare two manifests: nwreport -diff old.json new.json [-threshold P]")
		threshold = flag.Float64("threshold", 5.0, "diff mode: max allowed per-metric change in percent (0 = exact, including the stdout digest)")
	)
	flag.Var(&manifests, "manifest", "run manifest JSON file (repeatable)")
	flag.Var(&seriesFs, "series", "time-series NDJSON file from -series-out (repeatable)")
	flag.Var(&traceFs, "trace", "Chrome trace JSON file from -trace-out (repeatable)")
	flag.Var(&cellFs, "cells", "nwsweep cell NDJSON file, shard or merged (repeatable)")
	flag.Parse()

	if *diffMode {
		oldPath, newPath, thr, err := diffArgs(flag.Args(), *threshold)
		if err != nil {
			fatal(err)
		}
		oldMan, err := loadManifest(oldPath)
		if err != nil {
			fatal(err)
		}
		newMan, err := loadManifest(newPath)
		if err != nil {
			fatal(err)
		}
		lines := diffManifests(oldMan, newMan, thr)
		regressions := 0
		for _, l := range lines {
			if l.regressed {
				regressions++
				fmt.Printf("REGRESSION %-40s %-8s old=%s new=%s (%+.2f%%)\n",
					l.name, l.field, report.FmtNum(l.old), report.FmtNum(l.new), l.pct)
			}
		}
		fmt.Printf("nwreport: %d regression(s) above %.2f%% across %d comparison(s): %s vs %s\n",
			regressions, thr, len(lines), oldPath, newPath)
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}

	if *htmlOut == "" {
		fatal(fmt.Errorf("nothing to do: pass -html FILE (report mode) or -diff old new"))
	}
	if len(manifests) == 0 && len(seriesFs) == 0 && len(traceFs) == 0 && len(cellFs) == 0 {
		fatal(fmt.Errorf("report mode needs at least one -manifest, -series, -trace, or -cells input"))
	}

	var mans []*obs.Manifest
	var manNames []string
	for _, p := range manifests {
		m, err := loadManifest(p)
		if err != nil {
			fatal(err)
		}
		mans = append(mans, m)
		manNames = append(manNames, p)
	}
	var series []obs.SeriesData
	for _, p := range seriesFs {
		f, err := os.Open(p)
		if err != nil {
			fatal(err)
		}
		sd, err := obs.ReadSeriesNDJSON(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", p, err))
		}
		series = append(series, sd...)
	}
	type traceFile struct {
		path string
		runs []obs.NamedTrace
	}
	var traces []traceFile
	for _, p := range traceFs {
		f, err := os.Open(p)
		if err != nil {
			fatal(err)
		}
		runs, err := obs.ReadChrome(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", p, err))
		}
		traces = append(traces, traceFile{path: p, runs: runs})
	}

	out, err := os.Create(*htmlOut)
	if err != nil {
		fatal(err)
	}
	w := &report.ErrWriter{W: out}
	report.Header(w, "nwcache run report")
	if len(mans) > 0 {
		report.ManifestTable(w, mans, manNames)
	}
	if len(mans) == 2 {
		writeDeltaTable(w, mans, manNames)
	}
	if len(series) > 0 {
		report.SeriesSection(w, series)
	}
	for _, tf := range traces {
		report.TraceSection(w, tf.path, tf.runs)
	}
	for _, p := range cellFs {
		if err := writeCellsSection(w, p); err != nil {
			out.Close()
			fatal(err)
		}
	}
	report.Footer(w)
	if w.Err != nil {
		out.Close()
		fatal(w.Err)
	}
	if err := out.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "nwreport: wrote %s (%d manifests, %d series, %d traces, %d cell files)\n",
		*htmlOut, len(mans), len(series), len(traces), len(cellFs))
}

// writeCellsSection streams one nwsweep NDJSON file (shard or merged)
// into a sweep cell table: one row per cell in grid order, with the
// per-cell result digest verified as it is read.
func writeCellsSection(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(w, "<h2>Sweep cells: %s</h2>\n", html.EscapeString(path))
	fmt.Fprintln(w, "<table><tr><th>idx</th><th>app</th><th>machine</th><th>prefetch</th><th>seed</th><th>faults</th><th>exec Mpcycles</th><th>digest</th></tr>")
	rows := 0
	err = sweep.ReadLines(f, func(l sweep.Line) error {
		if !l.Verify() {
			return fmt.Errorf("%s: cell %d (%s) fails digest verification", path, l.Idx, l.Label)
		}
		faults := "-"
		if l.FaultPlan != "" || l.Recovery != "" {
			faults = l.Recovery
			if faults == "" {
				faults = "aggressive"
			}
		}
		digest := l.Digest
		if len(digest) > 23 {
			digest = digest[:23] + "…"
		}
		rows++
		fmt.Fprintf(w, "<tr><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%s</td><td>%.2f</td><td><code>%s</code></td></tr>\n",
			l.Idx, html.EscapeString(l.App), html.EscapeString(l.Kind), html.EscapeString(l.Mode),
			l.Seed, html.EscapeString(faults), float64(l.Result.ExecTime)/1e6, html.EscapeString(digest))
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "</table>")
	fmt.Fprintf(w, "<p class=muted>%d cells, every result digest verified</p>\n", rows)
	return nil
}

// diffArgs extracts "old new [-threshold P]" from the arguments left
// after flag parsing. The standard flag package stops at the first
// positional, so a trailing -threshold (the documented syntax) arrives
// here rather than in the parsed flag set.
func diffArgs(args []string, threshold float64) (oldPath, newPath string, thr float64, err error) {
	thr = threshold
	var pos []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-threshold" || a == "--threshold":
			if i+1 >= len(args) {
				return "", "", 0, fmt.Errorf("-threshold needs a value")
			}
			i++
			thr, err = strconv.ParseFloat(args[i], 64)
			if err != nil {
				return "", "", 0, fmt.Errorf("bad -threshold %q: %v", args[i], err)
			}
		case strings.HasPrefix(a, "-threshold=") || strings.HasPrefix(a, "--threshold="):
			v := a[strings.Index(a, "=")+1:]
			thr, err = strconv.ParseFloat(v, 64)
			if err != nil {
				return "", "", 0, fmt.Errorf("bad -threshold %q: %v", v, err)
			}
		default:
			pos = append(pos, a)
		}
	}
	if len(pos) != 2 {
		return "", "", 0, fmt.Errorf("diff mode needs exactly two manifests: nwreport -diff old.json new.json [-threshold P], got %d", len(pos))
	}
	if thr < 0 {
		return "", "", 0, fmt.Errorf("-threshold must be >= 0, got %g", thr)
	}
	return pos[0], pos[1], thr, nil
}

// diffLine is one compared quantity between two manifests.
type diffLine struct {
	name, field string
	old, new    float64
	pct         float64
	regressed   bool
}

// pctChange is the relative change in percent, guarded against a zero
// baseline (a denominator floor of 1 keeps 0 -> N finite: N*100%).
func pctChange(oldV, newV float64) float64 {
	den := math.Abs(oldV)
	if den < 1 {
		den = 1
	}
	return (newV - oldV) / den * 100
}

// diffManifests compares every metric (field by field, per kind), the
// simulated runtime, and — at threshold 0 — the stdout digest. Missing
// or extra metrics always count as regressions: two runs of the same
// workload must expose the same metric namespace.
func diffManifests(oldMan, newMan *obs.Manifest, thr float64) []diffLine {
	var lines []diffLine
	add := func(name, field string, o, n float64) {
		pct := pctChange(o, n)
		lines = append(lines, diffLine{name: name, field: field, old: o, new: n,
			pct: pct, regressed: math.Abs(pct) > thr})
	}
	newByName := make(map[string]obs.MetricValue, len(newMan.Metrics))
	for _, mv := range newMan.Metrics {
		newByName[mv.Name] = mv
	}
	for _, o := range oldMan.Metrics {
		n, ok := newByName[o.Name]
		if !ok {
			lines = append(lines, diffLine{name: o.Name, field: "missing",
				old: float64(o.Value), new: math.NaN(), regressed: true})
			continue
		}
		delete(newByName, o.Name)
		switch o.Kind {
		case "histogram":
			add(o.Name, "count", float64(o.Count), float64(n.Count))
			add(o.Name, "sum", float64(o.Sum), float64(n.Sum))
		case "timegauge":
			add(o.Name, "integral", float64(o.Integral), float64(n.Integral))
			add(o.Name, "span", float64(o.Span), float64(n.Span))
			add(o.Name, "peak", float64(o.Peak), float64(n.Peak))
		case "gauge":
			add(o.Name, "value", float64(o.Value), float64(n.Value))
			add(o.Name, "peak", float64(o.Peak), float64(n.Peak))
		default: // counter, probe-*
			add(o.Name, "value", float64(o.Value), float64(n.Value))
		}
	}
	extra := make([]string, 0, len(newByName))
	for name := range newByName {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		lines = append(lines, diffLine{name: name, field: "extra",
			old: math.NaN(), new: float64(newByName[name].Value), regressed: true})
	}
	if oldMan.SimPcycles != 0 || newMan.SimPcycles != 0 {
		add("sim_pcycles", "total", float64(oldMan.SimPcycles), float64(newMan.SimPcycles))
	}
	// The digest pins exact output bytes; any drift flips it, so it only
	// gates the exact-match mode.
	if thr == 0 && oldMan.Digest != "" && newMan.Digest != "" {
		lines = append(lines, diffLine{name: "digest", field: "sha256",
			regressed: oldMan.Digest != newMan.Digest})
	}
	return lines
}

func loadManifest(path string) (*obs.Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := obs.ReadManifest(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// writeDeltaTable renders the cross-run metric deltas for a manifest
// pair (e.g. standard vs nwcache, or baseline vs candidate), largest
// relative movement first.
func writeDeltaTable(w io.Writer, mans []*obs.Manifest, names []string) {
	lines := diffManifests(mans[0], mans[1], 0)
	kept := lines[:0]
	for _, l := range lines {
		if l.field == "sha256" || (l.old == 0 && l.new == 0) {
			continue
		}
		kept = append(kept, l)
	}
	sort.SliceStable(kept, func(i, j int) bool {
		pi, pj := math.Abs(kept[i].pct), math.Abs(kept[j].pct)
		if pi != pj {
			return pi > pj
		}
		return kept[i].name < kept[j].name
	})
	const maxRows = 40
	total := len(kept)
	if len(kept) > maxRows {
		kept = kept[:maxRows]
	}
	fmt.Fprintf(w, "<h2>Deltas: %s → %s</h2>\n", html.EscapeString(names[0]), html.EscapeString(names[1]))
	fmt.Fprintln(w, "<table><tr><th>metric</th><th>field</th><th>old</th><th>new</th><th>Δ%</th></tr>")
	for _, l := range kept {
		cls := "muted"
		if l.pct > 0.005 {
			cls = "up"
		} else if l.pct < -0.005 {
			cls = "down"
		}
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td class=%q>%+.2f</td></tr>\n",
			html.EscapeString(l.name), l.field, report.FmtNum(l.old), report.FmtNum(l.new), cls, l.pct)
	}
	fmt.Fprintln(w, "</table>")
	if total > maxRows {
		fmt.Fprintf(w, "<p class=muted>showing the %d largest of %d deltas</p>\n", maxRows, total)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nwreport:", err)
	os.Exit(2)
}
