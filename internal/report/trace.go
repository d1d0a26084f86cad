package report

import (
	"fmt"
	"html"
	"io"
	"math"
	"sort"
	"strings"

	"nwcache/internal/obs"
)

// Event names the summary gives meaning to (MODEL.md "Spans" lists
// every name the machine records). Faults are the fault.disk and
// fault.ring spans; ring occupancy moves with the ring.insert and
// ring.release instants; disk media accesses carry the disk prefix.
const (
	spanFaultDisk      = "fault.disk"
	spanFaultRing      = "fault.ring"
	instantRingInsert  = "ring.insert"
	instantRingRelease = "ring.release"
	diskMediaPrefix    = "disk."
)

// TimelineBuckets is the resolution of the ring-occupancy timeline.
const TimelineBuckets = 60

// hotPageRows is how many of the most-faulted pages a summary keeps.
const hotPageRows = 10

// TraceSummary is the analysis of one run's trace.
type TraceSummary struct {
	Spans    []SpanStats  // one per span name, largest total first
	Instants []NameCount  // one per instant name, by name
	Tracks   []TrackCount // one per track holding an event, by track id
	Ring     RingOccupancy
	HotPages []PageFaults // the most-faulted pages, most faults first
	Dropped  uint64       // events the trace cap discarded
}

// SpanStats summarizes every span of one name; durations are pcycles
// and the percentiles are exact nearest-rank values of the durations.
type SpanStats struct {
	Name               string
	Count              int
	Total              int64
	Mean               float64
	Min, P50, P99, Max int64
	First, Last        int64 // active window: earliest start, latest end
}

// NameCount is the number of events of one name.
type NameCount struct {
	Name  string
	Count int
}

// TrackCount is the per-name event count on one track (a CPU's faults,
// a node's swap-outs, a disk's media accesses).
type TrackCount struct {
	Track  int
	Name   string      // the track's registered name, "" if unnamed
	Counts []NameCount // by event name
}

// RingOccupancy is the number of pages on the ring over time, replayed
// from the ring.insert/ring.release instants. Mean and Timeline weigh
// it over the paging window [From, To]: the first to the last event
// other than a disk media access. The disks keep writing back after
// the last page has left the ring, and that idle tail is not paging.
type RingOccupancy struct {
	From, To int64
	Changes  int       // insert plus release instants
	Peak     int       // most pages on the ring at once
	Mean     float64   // time-weighted mean over [From, To]
	Timeline []float64 // time-weighted mean in each of TimelineBuckets slices; nil without ring events
}

// PageFaults pairs a page with its number of fault spans.
type PageFaults struct {
	Page   int64
	Faults int
}

// SummarizeTrace analyzes one trace: per-name span statistics, instant
// and per-track counts, ring occupancy and the hottest pages. A nil or
// empty trace yields an empty summary.
func SummarizeTrace(tr *obs.Trace) *TraceSummary {
	s := &TraceSummary{Dropped: tr.Dropped()}
	spans, instants := tr.Spans(), tr.Instants()
	if len(spans)+len(instants) == 0 {
		return s
	}
	from, to := int64(math.MaxInt64), int64(math.MinInt64)
	widen := func(name string, start, end int64) {
		if !strings.HasPrefix(name, diskMediaPrefix) {
			from, to = min(from, start), max(to, end)
		}
	}
	tracks := make(map[int]map[string]int)
	count := func(track int, name string) {
		m := tracks[track]
		if m == nil {
			m = make(map[string]int)
			tracks[track] = m
		}
		m[name]++
	}

	type byName struct {
		durs        []int64
		first, last int64
	}
	names := make(map[string]*byName)
	pageFaults := make(map[int64]int)
	for _, sp := range spans {
		widen(sp.Name, sp.Start, sp.End)
		count(sp.Track, sp.Name)
		a := names[sp.Name]
		if a == nil {
			a = &byName{first: sp.Start, last: sp.End}
			names[sp.Name] = a
		}
		a.durs = append(a.durs, sp.End-sp.Start)
		a.first, a.last = min(a.first, sp.Start), max(a.last, sp.End)
		if sp.Name == spanFaultDisk || sp.Name == spanFaultRing {
			pageFaults[sp.Arg]++
		}
	}
	for name, a := range names {
		d := a.durs
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		st := SpanStats{Name: name, Count: len(d), Min: d[0], Max: d[len(d)-1],
			P50: nearestRank(d, 0.50), P99: nearestRank(d, 0.99),
			First: a.first, Last: a.last}
		for _, v := range d {
			st.Total += v
		}
		st.Mean = float64(st.Total) / float64(st.Count)
		s.Spans = append(s.Spans, st)
	}
	sort.Slice(s.Spans, func(i, j int) bool {
		if s.Spans[i].Total != s.Spans[j].Total {
			return s.Spans[i].Total > s.Spans[j].Total
		}
		return s.Spans[i].Name < s.Spans[j].Name
	})

	instantCounts := make(map[string]int)
	var ring []obs.Instant
	for _, in := range instants {
		widen(in.Name, in.At, in.At)
		count(in.Track, in.Name)
		instantCounts[in.Name]++
		if in.Name == instantRingInsert || in.Name == instantRingRelease {
			ring = append(ring, in)
		}
	}
	s.Instants = sortedCounts(instantCounts)
	for id, m := range tracks {
		s.Tracks = append(s.Tracks, TrackCount{Track: id, Name: tr.TrackName(id), Counts: sortedCounts(m)})
	}
	sort.Slice(s.Tracks, func(i, j int) bool { return s.Tracks[i].Track < s.Tracks[j].Track })

	if from <= to {
		s.Ring = ringOccupancy(ring, from, to)
	}

	for page, n := range pageFaults {
		s.HotPages = append(s.HotPages, PageFaults{Page: page, Faults: n})
	}
	sort.Slice(s.HotPages, func(i, j int) bool {
		if s.HotPages[i].Faults != s.HotPages[j].Faults {
			return s.HotPages[i].Faults > s.HotPages[j].Faults
		}
		return s.HotPages[i].Page < s.HotPages[j].Page
	})
	if len(s.HotPages) > hotPageRows {
		s.HotPages = s.HotPages[:hotPageRows]
	}
	return s
}

// nearestRank returns the p-quantile of sorted (non-empty) values: the
// smallest value with at least p of the samples at or below it.
func nearestRank(sorted []int64, p float64) int64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// sortedCounts flattens a name→count map in name order.
func sortedCounts(m map[string]int) []NameCount {
	out := make([]NameCount, 0, len(m))
	for name, n := range m {
		out = append(out, NameCount{Name: name, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ringOccupancy replays insert/release instants (in time order; ties
// keep emission order) over the window [start, end].
func ringOccupancy(ring []obs.Instant, start, end int64) RingOccupancy {
	sort.SliceStable(ring, func(i, j int) bool { return ring[i].At < ring[j].At })
	r := RingOccupancy{From: start, To: end, Changes: len(ring)}
	span := end - start
	bw := float64(span) / TimelineBuckets
	weight := make([]float64, TimelineBuckets)
	var weighted float64
	occ, lastChange := 0, start
	// hold folds the constant occupancy since the last change into the
	// mean and the timeline, touching only the buckets it overlaps.
	hold := func(to int64) {
		if to <= lastChange {
			return
		}
		weighted += float64(occ) * float64(to-lastChange)
		b0 := int(float64(lastChange-start) / bw)
		b1 := min(int(float64(to-start)/bw), TimelineBuckets-1)
		for b := max(b0, 0); b <= b1; b++ {
			blo := float64(start) + float64(b)*bw
			lo, hi := max(float64(lastChange), blo), min(float64(to), blo+bw)
			if hi > lo {
				weight[b] += (hi - lo) * float64(occ)
			}
		}
		lastChange = to
	}
	for _, in := range ring {
		hold(in.At)
		if in.Name == instantRingInsert {
			occ++
		} else if occ > 0 {
			occ--
		}
		r.Peak = max(r.Peak, occ)
	}
	hold(end)
	if span > 0 {
		r.Mean = weighted / float64(span)
		if len(ring) > 0 {
			r.Timeline = make([]float64, TimelineBuckets)
			for b, w := range weight {
				r.Timeline[b] = w / bw
			}
		}
	}
	return r
}

// TraceSection renders the summary of every run in one trace file:
// span statistics, instant counts, ring occupancy with its timeline,
// per-track counts and the hottest pages. A trace that hit its cap says
// how many events it dropped, since every count below it is then short.
func TraceSection(w io.Writer, path string, runs []obs.NamedTrace) {
	fmt.Fprintf(w, "<h2>Trace: %s</h2>\n", html.EscapeString(path))
	for _, nt := range runs {
		s := SummarizeTrace(nt.Trace)
		title := nt.Name
		if title == "" {
			title = "(unnamed process)"
		}
		fmt.Fprintf(w, "<h3>%s — %d spans, %d instants</h3>\n", html.EscapeString(title),
			len(nt.Trace.Spans()), len(nt.Trace.Instants()))
		if s.Dropped > 0 {
			fmt.Fprintf(w, "<p class=up>%d events dropped: the trace hit its cap, so every count below is short</p>\n", s.Dropped)
		}
		if len(s.Spans) > 0 {
			fmt.Fprintln(w, "<table><tr><th>span</th><th>count</th><th>total Kpcycles</th><th>mean</th><th>min</th><th>p50</th><th>p99</th><th>max</th><th>active window</th></tr>")
			for _, st := range s.Spans {
				fmt.Fprintf(w, "<tr><td>%s</td><td>%d</td><td>%.1f</td><td>%.0f</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d–%d</td></tr>\n",
					html.EscapeString(st.Name), st.Count, float64(st.Total)/1e3, st.Mean,
					st.Min, st.P50, st.P99, st.Max, st.First, st.Last)
			}
			fmt.Fprintln(w, "</table>")
		}
		if len(s.Instants) > 0 {
			fmt.Fprintln(w, "<table><tr><th>instant</th><th>count</th></tr>")
			for _, c := range s.Instants {
				fmt.Fprintf(w, "<tr><td>%s</td><td>%d</td></tr>\n", html.EscapeString(c.Name), c.Count)
			}
			fmt.Fprintln(w, "</table>")
		}
		if s.Ring.Changes > 0 {
			pts := make([][2]float64, len(s.Ring.Timeline))
			for i, v := range s.Ring.Timeline {
				pts[i] = [2]float64{float64(i), v}
			}
			fmt.Fprintf(w, "<p>ring occupancy: peak %d pages, time-weighted mean %.1f over %d–%d %s</p>\n",
				s.Ring.Peak, s.Ring.Mean, s.Ring.From, s.Ring.To, SVGSpark(pts))
		}
		if len(s.Tracks) > 0 {
			fmt.Fprintln(w, "<table><tr><th>track</th><th>name</th><th>events</th></tr>")
			for _, tc := range s.Tracks {
				parts := make([]string, len(tc.Counts))
				for i, c := range tc.Counts {
					parts[i] = fmt.Sprintf("%s %d", c.Name, c.Count)
				}
				fmt.Fprintf(w, "<tr><td>%d</td><td>%s</td><td>%s</td></tr>\n",
					tc.Track, html.EscapeString(tc.Name), html.EscapeString(strings.Join(parts, " · ")))
			}
			fmt.Fprintln(w, "</table>")
		}
		if len(s.HotPages) > 0 {
			fmt.Fprintln(w, "<table><tr><th>hottest page</th><th>faults</th></tr>")
			for _, pf := range s.HotPages {
				fmt.Fprintf(w, "<tr><td>%d</td><td>%d</td></tr>\n", pf.Page, pf.Faults)
			}
			fmt.Fprintln(w, "</table>")
		}
	}
}
