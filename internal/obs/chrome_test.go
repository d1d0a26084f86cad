package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// The satellite requirement: encode → decode → same spans, exactly.
// Timestamps in the file are lossy microseconds, so fidelity rests on
// the pc/dpc args the encoder embeds.
func TestChromeRoundTrip(t *testing.T) {
	tr := NewTrace(0)
	tr.SetTrack(0, "cpu0")
	tr.SetTrack(3, "disk@2")
	tr.Span(0, "fault.disk", 17, 4211, 88)  // 17 pcycles = 0.085 µs: sub-µs precision
	tr.Span(0, "fault.ring", 4300, 4301, 0) // 1-pcycle span
	tr.Span(3, "disk.write", 100000, 250000, -7)
	tr.Instant(3, "ring.insert", 123457, 1<<40)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, "nwsim"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d processes, want 1", len(got))
	}
	if got[0].Name != "nwsim" {
		t.Fatalf("process name %q, want nwsim", got[0].Name)
	}
	rt := got[0].Trace
	if !reflect.DeepEqual(rt.Spans(), tr.Spans()) {
		t.Fatalf("spans round-trip mismatch:\n got %+v\nwant %+v", rt.Spans(), tr.Spans())
	}
	if !reflect.DeepEqual(rt.Instants(), tr.Instants()) {
		t.Fatalf("instants round-trip mismatch:\n got %+v\nwant %+v", rt.Instants(), tr.Instants())
	}
	if rt.TrackName(0) != "cpu0" || rt.TrackName(3) != "disk@2" {
		t.Fatalf("track names lost: %q %q", rt.TrackName(0), rt.TrackName(3))
	}
}

func TestChromeMultiProcess(t *testing.T) {
	a := NewTrace(0)
	a.Span(1, "x", 0, 10, 0)
	b := NewTrace(0)
	b.Span(2, "y", 5, 6, 3)
	var buf bytes.Buffer
	if err := WriteChromeMulti(&buf, []NamedTrace{{"run-a", a}, {"run-b", b}}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "run-a" || got[1].Name != "run-b" {
		t.Fatalf("processes = %+v", got)
	}
	if !reflect.DeepEqual(got[0].Trace.Spans(), a.Spans()) ||
		!reflect.DeepEqual(got[1].Trace.Spans(), b.Spans()) {
		t.Fatal("per-process spans mismatch")
	}
}

// The file must be the JSON Object Format viewers expect: a traceEvents
// array of ph:"X"/"M" records with µs timestamps.
func TestChromeFormatShape(t *testing.T) {
	tr := NewTrace(0)
	tr.SetTrack(0, "cpu0")
	tr.Span(0, "op", 200, 400, 0) // 200 pcycles @5ns = 1 µs
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, "p"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var x map[string]any
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			x = ev
		}
	}
	if x == nil {
		t.Fatal("no complete (ph=X) event emitted")
	}
	if x["ts"].(float64) != 1.0 || x["dur"].(float64) != 1.0 {
		t.Fatalf("ts/dur = %v/%v µs, want 1/1", x["ts"], x["dur"])
	}
	if !strings.Contains(buf.String(), "thread_name") {
		t.Fatal("track metadata missing")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Root().Scope("disk").Counter("reads").Add(9)
	var out bytes.Buffer
	dw := NewDigestWriter(&out)
	dw.Write([]byte("simulation output\n"))
	m := &Manifest{
		Tool:    "nwsim",
		App:     "gauss",
		Seed:    1,
		Params:  json.RawMessage(`{"Nodes":16}`),
		WallNS:  12345,
		Metrics: r.Snapshot(),
		Digest:  dw.Sum(),
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != m.Digest || !strings.HasPrefix(got.Digest, "sha256:") {
		t.Fatalf("digest %q != %q", got.Digest, m.Digest)
	}
	if mv, ok := got.Metrics.Get("disk.reads"); !ok || mv.Value != 9 {
		t.Fatalf("metrics lost: %+v ok=%v", mv, ok)
	}
	// Same bytes → same digest; different bytes → different digest.
	d2 := NewDigestWriter(&bytes.Buffer{})
	d2.Write([]byte("simulation output\n"))
	if d2.Sum() != m.Digest {
		t.Fatal("digest not deterministic")
	}
	d3 := NewDigestWriter(&bytes.Buffer{})
	d3.Write([]byte("different\n"))
	if d3.Sum() == m.Digest {
		t.Fatal("digest failed to distinguish outputs")
	}
}

// A capped trace must stay visibly capped: the dropped count rides in
// the export, and events the reader's own cap discards add to it.
func TestChromeKeepsDroppedCount(t *testing.T) {
	tr := NewTrace(3)
	for i := int64(0); i < 5; i++ {
		tr.Span(0, "fault.ring", 10*i, 10*i+5, i)
	}
	if tr.Len() != 3 || tr.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3/2", tr.Len(), tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, "capped"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rt := got[0].Trace; rt.Len() != 3 || rt.Dropped() != 2 {
		t.Fatalf("read back len=%d dropped=%d, want 3/2", rt.Len(), rt.Dropped())
	}
	got, err = readChrome(bytes.NewReader(buf.Bytes()), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rt := got[0].Trace; rt.Len() != 2 || rt.Dropped() != 3 {
		t.Fatalf("read under a cap of 2: len=%d dropped=%d, want 2/3", rt.Len(), rt.Dropped())
	}
	// An uncapped trace writes no dropped field at all.
	var clean bytes.Buffer
	if err := NewTrace(0).WriteChrome(&clean, "p"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.String(), "dropped") {
		t.Fatalf("complete trace carries a dropped field: %s", clean.String())
	}
}

func TestChromeRejectsHugeClockScale(t *testing.T) {
	in := `{"traceEvents":[],"otherData":{"nsPerTick":1e300}}`
	if _, err := ReadChrome(strings.NewReader(in)); err == nil {
		t.Fatal("nsPerTick 1e300 accepted")
	}
}
