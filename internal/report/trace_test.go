package report

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"nwcache/internal/obs"
)

// sampleTrace is one fault from disk, one ring swap-out and a victim
// hit on the swapped page, on the track layout the machine uses.
func sampleTrace(tr *obs.Trace) {
	tr.SetTrack(0, "cpu0")
	tr.SetTrack(2, "cpu2")
	tr.SetTrack(9, "swap1")
	tr.Span(0, "fault.disk", 0, 100, 10)
	tr.Span(9, "swap.ring", 150, 210, 20)
	tr.Instant(9, "ring.insert", 200, 20)
	tr.Instant(2, "ring.victim", 500, 20)
	tr.Span(2, "fault.ring", 400, 500, 20)
	tr.Instant(9, "ring.release", 600, 20)
}

func span(s *TraceSummary, name string) SpanStats {
	for _, st := range s.Spans {
		if st.Name == name {
			return st
		}
	}
	return SpanStats{}
}

func TestSummarizeTrace(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(tr *obs.Trace)
		check func(t *testing.T, s *TraceSummary)
	}{
		{"counts_and_latencies", sampleTrace, func(t *testing.T, s *TraceSummary) {
			if d := span(s, "fault.disk"); d.Count != 1 || d.Mean != 100 || d.First != 0 || d.Last != 100 {
				t.Errorf("fault.disk %+v", d)
			}
			if r := span(s, "fault.ring"); r.Count != 1 || r.Mean != 100 {
				t.Errorf("fault.ring %+v", r)
			}
			if w := span(s, "swap.ring"); w.Count != 1 || w.Mean != 60 {
				t.Errorf("swap.ring %+v", w)
			}
			want := []NameCount{{"ring.insert", 1}, {"ring.release", 1}, {"ring.victim", 1}}
			if !reflect.DeepEqual(s.Instants, want) {
				t.Errorf("instants %v, want %v", s.Instants, want)
			}
			if s.Ring.From != 0 || s.Ring.To != 600 {
				t.Errorf("window %d–%d, want 0–600", s.Ring.From, s.Ring.To)
			}
			tracks := []TrackCount{
				{0, "cpu0", []NameCount{{"fault.disk", 1}}},
				{2, "cpu2", []NameCount{{"fault.ring", 1}, {"ring.victim", 1}}},
				{9, "swap1", []NameCount{{"ring.insert", 1}, {"ring.release", 1}, {"swap.ring", 1}}},
			}
			if !reflect.DeepEqual(s.Tracks, tracks) {
				t.Errorf("tracks %+v", s.Tracks)
			}
		}},
		{"exact_percentiles", func(tr *obs.Trace) {
			for d := int64(100); d >= 1; d-- { // emission order must not matter
				tr.Span(0, "swap.disk", 1000, 1000+d, 0)
			}
		}, func(t *testing.T, s *TraceSummary) {
			got := span(s, "swap.disk")
			if got.Count != 100 || got.Min != 1 || got.P50 != 50 || got.P99 != 99 || got.Max != 100 || got.Mean != 50.5 {
				t.Errorf("swap.disk %+v, want min 1 p50 50 p99 99 max 100 mean 50.5", got)
			}
		}},
		{"ring_occupancy", func(tr *obs.Trace) {
			tr.Instant(8, "ring.insert", 0, 1)
			tr.Instant(9, "ring.insert", 100, 2)
			tr.Instant(8, "ring.release", 200, 1)
			tr.Instant(9, "ring.release", 400, 2)
		}, func(t *testing.T, s *TraceSummary) {
			// Occupancy 1 on [0,100), 2 on [100,200), 1 on [200,400):
			// mean = (100*1 + 100*2 + 200*1)/400 = 1.25.
			if s.Ring.Peak != 2 || s.Ring.Mean != 1.25 || s.Ring.Changes != 4 {
				t.Errorf("ring %+v, want peak 2 mean 1.25 changes 4", s.Ring)
			}
		}},
		{"timeline", func(tr *obs.Trace) {
			tr.Instant(8, "ring.insert", 0, 1)
			tr.Instant(8, "ring.release", 500, 1)
			tr.Span(0, "fault.disk", 900, 1000, 2) // extends the window
			tr.Span(16, "disk.write", 0, 5000, 1)  // media tail: outside the paging window
		}, func(t *testing.T, s *TraceSummary) {
			tl := s.Ring.Timeline
			if len(tl) != TimelineBuckets {
				t.Fatalf("timeline has %d buckets, want %d", len(tl), TimelineBuckets)
			}
			if tl[0] != 1 || tl[len(tl)-1] != 0 {
				t.Errorf("first/last bucket %g/%g, want 1/0", tl[0], tl[len(tl)-1])
			}
			if s.Ring.To != 1000 || s.Ring.Mean != 0.5 {
				t.Errorf("window end %d mean %g, want 1000 and 0.5", s.Ring.To, s.Ring.Mean)
			}
		}},
		{"hot_pages", func(tr *obs.Trace) {
			for i := int64(0); i < 5; i++ {
				tr.Span(0, "fault.ring", i, i+1, 7)
			}
			tr.Span(1, "fault.disk", 10, 20, 9)
			tr.Span(1, "fault.wait", 10, 20, 9) // a wait is not a fault
			for p := int64(100); p < 120; p++ {
				tr.Span(2, "fault.disk", 30, 40, p)
			}
		}, func(t *testing.T, s *TraceSummary) {
			if len(s.HotPages) != hotPageRows {
				t.Fatalf("%d hot pages, want %d", len(s.HotPages), hotPageRows)
			}
			if s.HotPages[0] != (PageFaults{7, 5}) || s.HotPages[1] != (PageFaults{9, 1}) || s.HotPages[2] != (PageFaults{100, 1}) {
				t.Errorf("hot pages %v", s.HotPages)
			}
		}},
		{"empty", func(*obs.Trace) {}, func(t *testing.T, s *TraceSummary) {
			if !reflect.DeepEqual(s, &TraceSummary{}) {
				t.Errorf("empty trace summarized as %+v", s)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.NewTrace(0)
			tc.build(tr)
			tc.check(t, SummarizeTrace(tr))
		})
	}
	if s := SummarizeTrace(nil); !reflect.DeepEqual(s, &TraceSummary{}) {
		t.Errorf("nil trace summarized as %+v", s)
	}
}

func TestTraceSectionRenders(t *testing.T) {
	full := obs.NewTrace(0)
	sampleTrace(full)
	capped := obs.NewTrace(2)
	sampleTrace(capped)
	var b bytes.Buffer
	TraceSection(&b, "t.json", []obs.NamedTrace{{Name: "run", Trace: full}, {Trace: capped}, {Name: "idle", Trace: obs.NewTrace(0)}})
	out := b.String()
	for _, want := range []string{
		"<h2>Trace: t.json</h2>", "run — 3 spans, 3 instants", "(unnamed process)",
		"fault.disk", "swap.ring", "ring.victim", "ring occupancy: peak 1 pages",
		"<svg class=spark", "swap1", "hottest page", "4 events dropped",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Count(out, "events dropped") != 1 {
		t.Error("only the capped trace may report dropped events")
	}
	if n := strings.Count(out, "<table>"); n != strings.Count(out, "</table>") {
		t.Errorf("unbalanced <table> tags: %d open", n)
	}
}
