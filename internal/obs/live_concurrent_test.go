package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestLiveServerConcurrentReaders hammers /metrics and the /series
// long-poll from several goroutines while a producer publishes frames
// as fast as it can, asserting no reader ever observes a torn frame.
// The producer maintains the invariant a.events == a.level at every
// Tick, so any frame mixing values from two ticks is detectable; /series
// must additionally stream strictly increasing sequence numbers. Run
// under -race this doubles as the data-race proof for the LiveView
// hand-off.
func TestLiveServerConcurrentReaders(t *testing.T) {
	reg, c, g, _ := sampleReg()
	s := NewSampler(reg, 10, 0)
	set := &LiveSet{}
	set.Add(s.Publish("em3d/nwcache/naive seed=1"))
	srv, err := StartLiveServer("127.0.0.1:0", set)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	const ticks = 400
	producerDone := make(chan struct{})
	go func() {
		defer close(producerDone)
		for i := 1; i <= ticks; i++ {
			c.Inc()
			g.Set(int64(i))
			s.Tick(int64(i) * 10)
			if i%50 == 0 {
				time.Sleep(time.Millisecond) // let readers land mid-run
			}
		}
	}()

	const readers = 4
	var wg sync.WaitGroup
	errc := make(chan error, 2*readers)

	// /metrics pollers: every scrape must carry matching counter and
	// gauge values.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-producerDone:
					return
				default:
				}
				resp, err := http.Get(base + "/metrics")
				if err != nil {
					errc <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				events, level := -1.0, -1.0
				for _, line := range strings.Split(string(body), "\n") {
					if tail, ok := strings.CutPrefix(line, "nwcache_a_events{"); ok {
						if v, ok := promValue(tail); ok {
							events = v
						}
					}
					if tail, ok := strings.CutPrefix(line, "nwcache_a_level{"); ok {
						if v, ok := promValue(tail); ok {
							level = v
						}
					}
				}
				if events >= 0 && level >= 0 && events != level {
					t.Errorf("torn /metrics frame: a.events=%g a.level=%g", events, level)
					return
				}
			}
		}()
	}

	// /series long-poll readers: frames arrive internally consistent
	// with strictly increasing Seq.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				<-producerDone
				time.Sleep(150 * time.Millisecond) // let the tail drain
				cancel()
			}()
			req, _ := http.NewRequestWithContext(ctx, "GET", base+"/series", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errc <- err
				return
			}
			defer resp.Body.Close()
			br := bufio.NewReader(resp.Body)
			lastSeq := int64(0)
			for {
				line, err := br.ReadBytes('\n')
				if err != nil {
					return // stream ended (context cancel)
				}
				var f struct {
					Seq     int64              `json:"seq"`
					Metrics map[string]float64 `json:"metrics"`
				}
				if err := json.Unmarshal(line, &f); err != nil {
					t.Errorf("bad /series line %q: %v", line, err)
					return
				}
				if f.Seq <= lastSeq {
					t.Errorf("/series seq went %d -> %d (not strictly increasing)", lastSeq, f.Seq)
					return
				}
				lastSeq = f.Seq
				if f.Metrics["a.events"] != f.Metrics["a.level"] {
					t.Errorf("torn /series frame: %v", f.Metrics)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// promValue parses the value off a `...} V` exposition tail.
func promValue(tail string) (float64, bool) {
	i := strings.LastIndexByte(tail, ' ')
	if i < 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(tail[i+1:], 64)
	return v, err == nil
}
