package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Live run monitoring: a Sampler can publish each tick's values into a
// LiveView — an atomically swapped immutable snapshot — so concurrent
// readers (the -watch terminal dashboard, the -http Prometheus/NDJSON
// server) observe a consistent frame without taking any lock and without
// the simulation ever waiting on an observer. The simulation side pays
// one snapshot allocation per tick while a view is attached and nothing
// otherwise; readers poll at wall-clock rates and are invisible to the
// deterministic virtual clock.

// LiveSample is one published telemetry frame. Names/Kinds are shared
// immutable slices (identical across a view's frames); Values is written
// once before publication and never mutated after.
type LiveSample struct {
	Run    string
	Now    int64 // virtual time of the frame (pcycles)
	Seq    int64 // publication counter, strictly increasing per view
	Names  []string
	Kinds  []string
	Values []float64
}

// Get returns the frame's value for a metric name, or false.
func (s *LiveSample) Get(name string) (float64, bool) {
	i := sort.SearchStrings(s.Names, name)
	if i < len(s.Names) && s.Names[i] == name {
		return s.Values[i], true
	}
	return 0, false
}

// LiveView is the lock-free hand-off point between one sampler and its
// observers.
type LiveView struct{ cur atomic.Pointer[LiveSample] }

// Load returns the most recent frame, or nil before the first tick.
func (v *LiveView) Load() *LiveSample {
	if v == nil {
		return nil
	}
	return v.cur.Load()
}

// Publish attaches a LiveView to the sampler and returns it: every
// subsequent Tick additionally publishes a frame labeled run. Attaching
// a view is what makes Tick allocate (one frame per tick); leave it
// unattached for allocation-free sampling. Nil-safe (returns nil).
func (s *Sampler) Publish(run string) *LiveView {
	if s == nil {
		return nil
	}
	if s.names == nil {
		s.names = make([]string, len(s.cols))
		s.kinds = make([]string, len(s.cols))
		for i := range s.cols {
			s.names[i] = s.cols[i].name
			s.kinds[i] = s.cols[i].kind
		}
	}
	s.live = &LiveView{}
	s.liveRun = run
	return s.live
}

// publish builds and swaps in the current frame.
func (s *Sampler) publish(now int64) {
	vals := make([]float64, len(s.cols))
	for i := range s.cols {
		vals[i] = s.cols[i].eval()
	}
	prev := s.live.cur.Load()
	var seq int64 = 1
	if prev != nil {
		seq = prev.Seq + 1
	}
	s.live.cur.Store(&LiveSample{
		Run: s.liveRun, Now: now, Seq: seq,
		Names: s.names, Kinds: s.kinds, Values: vals,
	})
}

// LiveSet collects the views of every in-flight run (one for nwsim, one
// per concurrently executing cell for nwbench sweeps). Registration is
// mutex-guarded; reading loads each view's atomic frame.
type LiveSet struct {
	mu    sync.Mutex
	views []*LiveView
}

// Add registers a view. Nil-safe on both sides.
func (ls *LiveSet) Add(v *LiveView) {
	if ls == nil || v == nil {
		return
	}
	ls.mu.Lock()
	ls.views = append(ls.views, v)
	ls.mu.Unlock()
}

// Frames returns the latest frame of every registered view that has
// published at least once, in registration order.
func (ls *LiveSet) Frames() []*LiveSample {
	if ls == nil {
		return nil
	}
	ls.mu.Lock()
	views := append([]*LiveView(nil), ls.views...)
	ls.mu.Unlock()
	out := make([]*LiveSample, 0, len(views))
	for _, v := range views {
		if f := v.Load(); f != nil {
			out = append(out, f)
		}
	}
	return out
}

// LiveServer serves the telemetry of a LiveSet over HTTP:
//
//	/metrics  Prometheus text exposition of every run's latest frame
//	/series   NDJSON stream: one line per newly published frame
//	/         plain-text index
//
// The server reads only published frames, so it can run for the whole
// life of a long sweep without touching simulation determinism.
type LiveServer struct {
	set *LiveSet
	srv *http.Server
	ln  net.Listener
}

// StartLiveServer listens on addr (e.g. ":8399") and serves set in a
// background goroutine. It fails fast if the address cannot be bound.
func StartLiveServer(addr string, set *LiveSet) (*LiveServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: live server: %w", err)
	}
	s := &LiveServer{set: set, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/series", s.handleSeries)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint:errcheck // Close's ErrServerClosed is the normal exit
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *LiveServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down.
func (s *LiveServer) Close() error { return s.srv.Close() }

func (s *LiveServer) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	frames := s.set.Frames()
	fmt.Fprintf(w, "nwcache live telemetry — %d run(s)\n\n", len(frames))
	for _, f := range frames {
		fmt.Fprintf(w, "  %-40s t=%d pcycles (%d frames)\n", f.Run, f.Now, f.Seq)
	}
	fmt.Fprintf(w, "\nendpoints: /metrics (Prometheus text), /series (NDJSON stream)\n")
}

// promName sanitizes a dotted metric name into a Prometheus metric name.
func promName(name string) string {
	var sb strings.Builder
	sb.WriteString("nwcache_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

func (s *LiveServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeMetricsText(w, s.set.Frames())
}

// writeMetricsText writes frames in Prometheus text exposition format:
// one sample per metric per frame, labeled with the frame's run (no
// label set when Run is empty), with # TYPE headers emitted once per
// metric name across all frames.
func writeMetricsText(w io.Writer, frames []*LiveSample) {
	bw := bufio.NewWriter(w)
	typed := map[string]bool{}
	for _, f := range frames {
		var l string
		if f.Run != "" {
			l = fmt.Sprintf("{run=%q}", f.Run)
		}
		for i, name := range f.Names {
			pn := promName(name)
			if !typed[pn] {
				typed[pn] = true
				kind := "gauge"
				if f.Kinds[i] == "counter" {
					kind = "counter"
				}
				fmt.Fprintf(bw, "# TYPE %s %s\n", pn, kind)
			}
			fmt.Fprintf(bw, "%s%s %g\n", pn, l, f.Values[i])
		}
		fmt.Fprintf(bw, "%s%s %d\n", "nwcache_sim_now_published_pcycles", l, f.Now)
	}
	bw.Flush()
}

// seriesFrame is one NDJSON line of the /series stream.
type seriesFrame struct {
	Run     string             `json:"run,omitempty"`
	Now     int64              `json:"now"`
	Seq     int64              `json:"seq"`
	Metrics map[string]float64 `json:"metrics"`
}

// handleSeries streams the set's newly published frames as NDJSON (one
// seriesFrame per line, deduplicated per run by Seq) until the client
// disconnects.
func (s *LiveServer) handleSeries(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	last := map[string]int64{} // run -> last streamed Seq
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for {
		for _, f := range s.set.Frames() {
			if f.Seq <= last[f.Run] {
				continue
			}
			last[f.Run] = f.Seq
			m := make(map[string]float64, len(f.Names))
			for i, name := range f.Names {
				m[name] = f.Values[i]
			}
			if err := enc.Encode(seriesFrame{Run: f.Run, Now: f.Now, Seq: f.Seq, Metrics: m}); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}
