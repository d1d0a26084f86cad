package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestEventsNDJSONRoundTrip(t *testing.T) {
	in := []Event{
		{Seq: 1, Type: EventShardStart, Key: "abc", Total: 4},
		{Seq: 2, Type: EventCellDone, Cell: "em3d/nwcache/naive seed=1",
			Key: "k", Idx: 2, Done: 1, Total: 4, DurationNS: 1500, EtaNS: 4500},
		{Seq: 3, Type: EventCellPoisoned, Reason: "panic"},
	}
	var buf bytes.Buffer
	if err := WriteEventsNDJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadEventsNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}
}

// FuzzReadEvents pins the two parser properties every line format in
// this repo carries: arbitrary input never panics, and accepted input
// reaches a canonical fixpoint (parse -> write -> parse is identity).
func FuzzReadEvents(f *testing.F) {
	f.Add(`{"seq":1,"type":"shard.start","key":"abc","total":4}`)
	f.Add(`{"seq":2,"job":"j1","type":"cell.done","cell":"em3d/nwcache/naive seed=1","idx":3,"done":1,"total":4,"dur_ns":1500,"eta_ns":4500}`)
	f.Add(`{"type":"cell.poisoned","reason":"panic"}` + "\n" + `{"type":"shard.done","reason":"poisoned"}`)
	f.Add(`{"type":"x","unknown":true}`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, text string) {
		evs, err := ReadEventsNDJSON(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEventsNDJSON(&buf, evs); err != nil {
			t.Fatalf("re-encoding accepted events: %v", err)
		}
		again, err := ReadEventsNDJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing canonical form: %v", err)
		}
		if !reflect.DeepEqual(evs, again) {
			t.Fatalf("canonical form is not a fixpoint:\n first %+v\nsecond %+v", evs, again)
		}
	})
}
