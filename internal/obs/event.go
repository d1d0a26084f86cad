package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Structured lifecycle events: one NDJSON line per state change of a
// sweep shard (cell admitted, satisfied from STATE or cache, finished,
// poisoned; shard started and done). nwsweep -events-out writes the
// stream and ReadEventsNDJSON, a fuzz-covered parser, reads it back.
// Events are advisory telemetry — they carry wall-clock durations and
// ETAs and are never part of a determinism digest.

// Event is one lifecycle event. Seq is assigned by the stream writer
// at append time; producers leave it zero.
type Event struct {
	Seq  int64  `json:"seq,omitempty"`
	Type string `json:"type"`           // e.g. "cell.done", "shard.start"
	Cell string `json:"cell,omitempty"` // cell label ("app/kind/mode seed=N")
	Key  string `json:"key,omitempty"`  // cell key, or the spec digest on shard events
	Idx  int    `json:"idx,omitempty"`  // grid index of the cell
	// Reason qualifies terminal events: a poison verdict ("panic",
	// "timeout", "stalled", "wedged") or a shard outcome ("complete",
	// "incomplete", "poisoned").
	Reason     string `json:"reason,omitempty"`
	Done       int    `json:"done,omitempty"`  // cells settled so far
	Total      int    `json:"total,omitempty"` // cells owned by the shard
	DurationNS int64  `json:"dur_ns,omitempty"`
	EtaNS      int64  `json:"eta_ns,omitempty"` // projected remaining wall time
}

// Event types emitted by the sweep runner.
const (
	EventShardStart   = "shard.start"
	EventShardDone    = "shard.done"
	EventCellStart    = "cell.start"
	EventCellState    = "cell.state" // satisfied by STATE replay
	EventCellCache    = "cell.cache" // adopted from the result cache
	EventCellDone     = "cell.done"
	EventCellPoisoned = "cell.poisoned"
)

// WriteEventsNDJSON writes one JSON object per line per event — the
// format -events-out emits.
func WriteEventsNDJSON(w io.Writer, evs []Event) error {
	enc := json.NewEncoder(w)
	for i := range evs {
		if err := enc.Encode(&evs[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadEventsNDJSON decodes a WriteEventsNDJSON stream.
func ReadEventsNDJSON(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for dec.More() {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("obs: decoding event: %w", err)
		}
		out = append(out, ev)
	}
	return out, nil
}
