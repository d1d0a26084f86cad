package obs

import (
	"bytes"
	"os"
	"testing"
)

// realTrace is a small trace of a paging run, recorded with
//
//	nwsim -app lu -scale 0.01 -mem 32768 -trace-out internal/obs/testdata/lu-small.trace.json
//
// It holds every event the NWCache machine records (faults, waits,
// victim hits, swap-outs, ring inserts/releases/drains, clean
// evictions, disk write-back).
const realTrace = "testdata/lu-small.trace.json"

// reencode decodes a Chrome trace and writes it back.
func reencode(data []byte) ([]byte, error) {
	runs, err := ReadChrome(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = WriteChromeMulti(&buf, runs)
	return buf.Bytes(), err
}

// A file the encoder wrote decodes and re-encodes to the same bytes:
// nothing the recorder puts in the file (pcycles, operands, track
// names, dropped counts) is lost by the reader.
func TestChromeRealTraceRoundTrip(t *testing.T) {
	data, err := os.ReadFile(realTrace)
	if err != nil {
		t.Fatal(err)
	}
	again, err := reencode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("re-encoding %s changed it (%d -> %d bytes)", realTrace, len(data), len(again))
	}
}

// FuzzReadChrome pins the trace reader nwreport relies on: arbitrary
// input never panics, and input it accepts re-encodes to a fixpoint
// (decode -> encode -> decode -> encode yields the same bytes twice).
func FuzzReadChrome(f *testing.F) {
	real, err := os.ReadFile(realTrace)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	// Foreign events: µs timestamps only, no pcycle args.
	f.Add([]byte(`{"traceEvents":[{"name":"x","ph":"X","pid":3,"tid":1,"ts":1.5,"dur":2},{"name":"y","ph":"I","pid":3,"tid":1,"ts":7}],"otherData":{"nsPerTick":2.5}}`))
	f.Add([]byte(`{"traceEvents":[{"name":"process_name","ph":"M","pid":0,"args":{"name":"capped","dropped":9}},{"name":"fault.ring","ph":"X","pid":0,"tid":0,"ts":0.5,"dur":0.1,"args":{"pc":100,"dpc":20,"arg":-4}}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		once, err := reencode(data)
		if err != nil {
			return
		}
		twice, err := reencode(once)
		if err != nil {
			t.Fatalf("re-reading the canonical encoding: %v\n%s", err, once)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("canonical encoding is not a fixpoint:\n first %s\nsecond %s", once, twice)
		}
	})
}
