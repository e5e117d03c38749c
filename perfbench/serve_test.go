package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopTimesFromScheduledSend drives a server that stalls on its
// first request, over one connection. Requests due during the stall
// wait behind it; timed from their scheduled send they are charged that
// wait, while the generator itself sent them on time.
func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	const stall = 300 * time.Millisecond
	var mu sync.Mutex
	first := true
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		slow := first
		first = false
		mu.Unlock()
		if slow {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	sb := &serveBench{base: ts.URL, client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
	defer sb.client.CloseIdleConnections()

	offsets := []time.Duration{0, 50 * time.Millisecond, 100 * time.Millisecond}
	out := make([]result, len(offsets))
	start := time.Now()
	openLoop(start, offsets, func(i int) func(time.Time) {
		ex := exchange{class: "probe", method: http.MethodGet, url: "/", verify: func([]byte) error { return nil }}
		return func(due time.Time) { out[i] = sb.do(context.Background(), ex, due) }
	})

	for i := range out {
		out[i].judge()
	}
	for i, r := range out {
		if r.outcome != okResult {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if want := start.Add(offsets[i]); !r.scheduled.Equal(want) {
			t.Errorf("request %d scheduled at %v, want %v", i, r.scheduled.Sub(start), offsets[i])
		}
		if late := r.lateness(); late < 0 || late > 40*time.Millisecond {
			t.Errorf("request %d: generator lateness %v", i, late)
		}
		// Every request finishes only after the stall; its latency runs
		// from its own due time.
		if min := stall - offsets[i]; r.latency() < min {
			t.Errorf("request %d: latency %v, want at least %v (stall minus its offset)", i, r.latency(), min)
		}
		if r.latency() != r.done.Sub(start.Add(offsets[i])) {
			t.Errorf("request %d: latency not measured from the schedule", i)
		}
	}
	// Sent on time, the second request still waited for the connection
	// the stalled one held: most of its latency is that wait, which a
	// closed-loop measurement from the actual send would also see, but
	// one from a late send would hide.
	if out[1].latency() < stall-offsets[1] {
		t.Errorf("stall not charged to the request due during it")
	}
}

func TestLatenessIsSendMinusSchedule(t *testing.T) {
	due := time.Unix(100, 0)
	r := result{scheduled: due, sent: due.Add(7 * time.Millisecond), done: due.Add(30 * time.Millisecond)}
	if r.lateness() != 7*time.Millisecond || r.latency() != 30*time.Millisecond {
		t.Errorf("lateness %v latency %v, want 7ms and 30ms", r.lateness(), r.latency())
	}
}

func TestScheduleIsSeededAndAtRate(t *testing.T) {
	cfg, err := loadServeConfig()
	if err != nil {
		t.Fatal(err)
	}
	a := schedule(rand.New(rand.NewSource(7)), 100, 20, cfg.Classes, 4, 2)
	b := schedule(rand.New(rand.NewSource(7)), 100, 20, cfg.Classes, 4, 2)
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedules: %d vs %d requests", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, request %d differs", i)
		}
	}
	if len(a) != 2000 {
		t.Fatalf("%d requests in 20 s at 100/s, want 2000", len(a))
	}
	count := map[string]int{}
	for i, r := range a {
		count[r.class]++
		if r.class == classBDD && r.prog < 4 || r.class != classBDD && r.prog >= 4 {
			t.Fatalf("request of class %s drew program %d", r.class, r.prog)
		}
		slot := time.Duration(i) * 10 * time.Millisecond
		if r.at < slot || r.at >= slot+10*time.Millisecond {
			t.Fatalf("request %d at %v, outside its slot from %v", i, r.at, slot)
		}
	}
	// Equal shares: every class within one request of 2000/classes.
	for _, c := range cfg.Classes {
		if n := count[c]; n < 2000/len(cfg.Classes) || n > 2000/len(cfg.Classes)+1 {
			t.Errorf("%d %s requests, want 2000/%d", n, c, len(cfg.Classes))
		}
	}
}

// TestEveryClassHasTwentyTracedSamples: at the configured rate and the
// run length in BENCHMARK.json, equal shares give every class at least
// 20 requests in the traced half-window, enough for its
// service.<class>_p50_ms.
func TestEveryClassHasTwentyTracedSamples(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside this directory:", err)
	}
	var b struct {
		RunSeconds float64 `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	cfg, err := loadServeConfig()
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, r := range schedule(rand.New(rand.NewSource(1)), cfg.Rate.Value, b.RunSeconds/2, cfg.Classes, 4, 2) {
		count[r.class]++
	}
	for _, c := range cfg.Classes {
		if count[c] < 20 {
			t.Errorf("%d %s requests in the traced half-window, want at least 20", count[c], c)
		}
	}
}
