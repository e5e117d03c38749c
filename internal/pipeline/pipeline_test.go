package pipeline

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// traceState records what ran, and doubles as a RelationSizer.
type traceState struct {
	ran   []string
	sizes map[string]int64
}

func (s *traceState) RelationSizes() map[string]int64 {
	out := make(map[string]int64, len(s.sizes))
	for k, v := range s.sizes {
		out[k] = v
	}
	return out
}

func namedPhase(name string) Phase[*traceState] {
	return New(name, func(_ context.Context, st *traceState) error {
		st.ran = append(st.ran, name)
		return nil
	})
}

func TestPhaseOrder(t *testing.T) {
	names := []string{"alpha", "beta", "gamma", "delta"}
	var phases []Phase[*traceState]
	for _, n := range names {
		phases = append(phases, namedPhase(n))
	}
	r := NewRunner(phases...)
	st := &traceState{}
	m, err := r.Run(context.Background(), st)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fmt.Sprint(st.ran) != fmt.Sprint(names) {
		t.Errorf("phases ran %v, want %v", st.ran, names)
	}
	if len(m.Phases) != len(names) {
		t.Fatalf("metrics has %d phases, want %d", len(m.Phases), len(names))
	}
	for i, pm := range m.Phases {
		if pm.Name != names[i] {
			t.Errorf("metrics[%d] = %q, want %q", i, pm.Name, names[i])
		}
		if pm.Wall < 0 {
			t.Errorf("metrics[%d].Wall negative", i)
		}
	}
	if got := r.PhaseNames(); fmt.Sprint(got) != fmt.Sprint(names) {
		t.Errorf("PhaseNames = %v, want %v", got, names)
	}
}

func TestObserverSequence(t *testing.T) {
	var events []string
	r := NewRunner(namedPhase("one"), namedPhase("two"))
	r.Observer = ObserverFuncs[*traceState]{
		Start: func(name string, _ *traceState) {
			events = append(events, "start:"+name)
		},
		End: func(name string, _ *traceState, m PhaseMetrics) {
			if m.Name != name {
				t.Errorf("PhaseEnd metrics name %q != %q", m.Name, name)
			}
			events = append(events, "end:"+name)
		},
	}
	if _, err := r.Run(context.Background(), &traceState{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"start:one", "end:one", "start:two", "end:two"}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Errorf("observer events %v, want %v", events, want)
	}
}

func TestCancellationStopsPipeline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// The second phase cancels the context; the third must not run.
	r := NewRunner(
		namedPhase("first"),
		New("canceller", func(_ context.Context, st *traceState) error {
			st.ran = append(st.ran, "canceller")
			cancel()
			return nil
		}),
		namedPhase("never"),
	)
	st := &traceState{}
	m, err := r.Run(ctx, st)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	if fmt.Sprint(st.ran) != fmt.Sprint([]string{"first", "canceller"}) {
		t.Errorf("phases ran %v; the post-cancel phase must not run", st.ran)
	}
	if len(m.Phases) != 2 {
		t.Errorf("metrics has %d phases, want 2 (the ones that ran)", len(m.Phases))
	}
}

func TestDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	r := NewRunner(namedPhase("only"))
	st := &traceState{}
	_, err := r.Run(ctx, st)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run err = %v, want context.DeadlineExceeded", err)
	}
	if len(st.ran) != 0 {
		t.Errorf("phases ran %v under an expired deadline", st.ran)
	}
}

func TestPhaseErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	r := NewRunner(
		namedPhase("ok"),
		New("fails", func(_ context.Context, st *traceState) error {
			st.ran = append(st.ran, "fails")
			return boom
		}),
		namedPhase("never"),
	)
	st := &traceState{}
	m, err := r.Run(context.Background(), st)
	if !errors.Is(err, boom) {
		t.Fatalf("Run err = %v, want the phase error", err)
	}
	if fmt.Sprint(st.ran) != fmt.Sprint([]string{"ok", "fails"}) {
		t.Errorf("phases ran %v", st.ran)
	}
	// The failing phase's metrics are still recorded.
	if m.Get("fails") == nil {
		t.Error("failing phase missing from metrics")
	}
}

func TestOutputsAttributedToPhase(t *testing.T) {
	st := &traceState{sizes: map[string]int64{}}
	r := NewRunner(
		New("produce", func(_ context.Context, s *traceState) error {
			s.sizes["rel_a"] = 10
			return nil
		}),
		New("grow", func(_ context.Context, s *traceState) error {
			s.sizes["rel_a"] = 25
			s.sizes["rel_b"] = 7
			return nil
		}),
		New("idle", func(_ context.Context, s *traceState) error {
			return nil
		}),
	)
	m, err := r.Run(context.Background(), st)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	p := m.Get("produce")
	if p.Outputs["rel_a"] != 10 || len(p.Outputs) != 1 {
		t.Errorf("produce outputs = %v, want rel_a=10 only", p.Outputs)
	}
	g := m.Get("grow")
	if g.Outputs["rel_a"] != 25 || g.Outputs["rel_b"] != 7 || len(g.Outputs) != 2 {
		t.Errorf("grow outputs = %v, want rel_a=25 rel_b=7", g.Outputs)
	}
	if len(m.Get("idle").Outputs) != 0 {
		t.Errorf("idle outputs = %v, want none", m.Get("idle").Outputs)
	}
}

func TestMetricsGetMissing(t *testing.T) {
	m := &Metrics{}
	if m.Get("nope") != nil {
		t.Error("Get on empty metrics should be nil")
	}
}

// sink keeps the allocation in TestAllocBytesAttributedToPhase alive
// past the compiler's escape analysis.
var sink []byte

func TestAllocBytesAttributedToPhase(t *testing.T) {
	const size = 4 << 20
	r := NewRunner(
		New("alloc", func(_ context.Context, _ *traceState) error {
			sink = make([]byte, size)
			return nil
		}),
		namedPhase("idle"),
	)
	m, err := r.Run(context.Background(), &traceState{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Large allocations reach the runtime counter immediately, so the
	// phase that made one is charged at least its size.
	if got := m.Get("alloc").AllocBytes; got < size {
		t.Errorf("alloc phase AllocBytes = %d, want >= %d", got, size)
	}
	if got := m.Get("idle").AllocBytes; got >= size {
		t.Errorf("idle phase AllocBytes = %d, charged the alloc phase's allocation", got)
	}
}
