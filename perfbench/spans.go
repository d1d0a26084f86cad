package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program. Times are nanoseconds since the tracer was created; Parent
// 0 marks a root span. Spans of one process share Run.
type span struct {
	Run    string `json:"run"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op that returns 0, so call sites
// need no branches.
type tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	next  int64
	open  map[int64]*span
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now(), open: map[int64]*span{}}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.open[t.next] = &span{Run: t.run, ID: t.next, Parent: parent, Name: name, Start: now}
	return t.next
}

// end closes the span begin returned.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	s.End = now
	t.spans = append(t.spans, *s)
}

// add records a span whose bounds were taken elsewhere, such as a cell
// timed between two pool callbacks.
func (t *tracer) add(name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{Run: t.run, ID: t.next, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// write stores every closed span as one NDJSON line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTotal is the time one span name accounts for across a run. Self
// time is the span's duration minus the part of it that its children
// cover (overlapping children, such as cells on parallel workers, are
// counted once).
type spanTotal struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// summary aggregates the closed spans by name, largest total first.
func (t *tracer) summary() []spanTotal {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := map[string]*spanTotal{}
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanTotal{Name: s.Name}
			byName[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.Total += time.Duration(dur)
		st.Self += time.Duration(dur - covered(children[s.ID], s.Start, s.End))
	}
	out := make([]spanTotal, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of [lo, hi) the union of the intervals spans.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

func (s spanTotal) String() string {
	return fmt.Sprintf("%-28s %6d  total %9.4fs  self %9.4fs", s.Name, s.Count, s.Total.Seconds(), s.Self.Seconds())
}
