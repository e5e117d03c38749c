// Package pipeline provides the staged execution engine underneath
// RegionWiz. The analysis (Section 5 of the paper) is explicitly
// staged — front end, call graph, context numbering, pointer analysis,
// relation extraction, pair computation, post-processing — and this
// package gives each stage a first-class seam: a named Phase run by a
// Runner over a shared state, with per-phase wall time, allocation
// deltas, and output-relation sizes recorded into a Metrics struct
// (the raw material of the paper's Figure 11 cost columns).
//
// The Runner honours context cancellation and deadlines between
// phases, and an optional Observer receives phase start/end callbacks
// for logging and benchmarking. RunCorpus (corpus.go) drives many
// independent analyses over a bounded worker pool.
package pipeline

import (
	"context"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/trace"
)

// Phase is one named stage of a pipeline over state S.
type Phase[S any] interface {
	// Name identifies the phase in metrics and observer callbacks.
	Name() string
	// Run executes the phase. The context is the Runner's; long
	// phases may poll it for cancellation.
	Run(ctx context.Context, st S) error
}

// phaseFunc adapts a function to the Phase interface.
type phaseFunc[S any] struct {
	name string
	fn   func(ctx context.Context, st S) error
}

func (p phaseFunc[S]) Name() string                        { return p.name }
func (p phaseFunc[S]) Run(ctx context.Context, st S) error { return p.fn(ctx, st) }

// New builds a Phase from a name and a function.
func New[S any](name string, fn func(ctx context.Context, st S) error) Phase[S] {
	return phaseFunc[S]{name: name, fn: fn}
}

// PhaseMetrics records one phase's cost and output.
type PhaseMetrics struct {
	Name string
	// Wall is the phase's wall-clock duration.
	Wall time.Duration
	// AllocBytes is the delta of the runtime's cumulative heap
	// allocation counter (/gc/heap/allocs:bytes) across the phase:
	// bytes allocated, not live heap. The counter is process-wide, so
	// concurrent analyses charge each other's allocations, and the
	// runtime updates it as allocation spans leave a P's cache, so a
	// phase that allocates only a few KB may read as zero.
	AllocBytes int64
	// Outputs holds the relation sizes this phase produced or
	// changed, when the state implements RelationSizer: every key
	// whose value differs from the pre-phase snapshot.
	Outputs map[string]int64
	// Inputs names the relations the phase declared it consumes (see
	// WithInputs); nil for phases that declare nothing.
	Inputs []string
}

// Metrics is the cost breakdown of one Runner.Run.
type Metrics struct {
	Phases []PhaseMetrics
	Total  time.Duration
}

// Get returns the metrics of the named phase, or nil.
func (m *Metrics) Get(name string) *PhaseMetrics {
	for i := range m.Phases {
		if m.Phases[i].Name == name {
			return &m.Phases[i]
		}
	}
	return nil
}

// Observer receives phase lifecycle callbacks.
type Observer[S any] interface {
	PhaseStart(name string, st S)
	PhaseEnd(name string, st S, m PhaseMetrics)
}

// ObserverFuncs adapts two functions to the Observer interface;
// either may be nil.
type ObserverFuncs[S any] struct {
	Start func(name string, st S)
	End   func(name string, st S, m PhaseMetrics)
}

// PhaseStart implements Observer.
func (o ObserverFuncs[S]) PhaseStart(name string, st S) {
	if o.Start != nil {
		o.Start(name, st)
	}
}

// PhaseEnd implements Observer.
func (o ObserverFuncs[S]) PhaseEnd(name string, st S, m PhaseMetrics) {
	if o.End != nil {
		o.End(name, st, m)
	}
}

// RelationSizer is optionally implemented by the pipeline state. The
// Runner snapshots it around every phase and attributes each changed
// key to that phase's Outputs (a solver, say, reports its iteration
// and relation counts this way without the Runner knowing about it).
type RelationSizer interface {
	RelationSizes() map[string]int64
}

// InputDeclarer is optionally implemented by a Phase to name the
// relations it consumes. Declarations are descriptive today — the
// Runner records them in PhaseMetrics.Inputs — but they are the seam a
// delta-aware scheduler needs: a phase whose declared inputs are
// unchanged since the previous run can be skipped or served from
// cache. The incremental front end (internal/core) realizes exactly
// that for parse/check/lower; the solver phases declare their inputs
// now so the same machinery can reach them in a later change.
type InputDeclarer interface {
	Inputs() []string
}

// declaredPhase attaches an input declaration to a phase.
type declaredPhase[S any] struct {
	Phase[S]
	inputs []string
}

func (p declaredPhase[S]) Inputs() []string { return p.inputs }

// WithInputs wraps a phase with a declaration of the relations it
// reads (keys of the state's RelationSizes, or upstream artifact names
// like "sources").
func WithInputs[S any](p Phase[S], inputs ...string) Phase[S] {
	return declaredPhase[S]{Phase: p, inputs: inputs}
}

// Runner executes a registered phase list over a shared state.
type Runner[S any] struct {
	phases []Phase[S]
	// Observer, when set, receives start/end callbacks per phase.
	Observer Observer[S]
}

// NewRunner builds a Runner over the given phases.
func NewRunner[S any](phases ...Phase[S]) *Runner[S] {
	return &Runner[S]{phases: phases}
}

// Add appends a phase.
func (r *Runner[S]) Add(p Phase[S]) { r.phases = append(r.phases, p) }

// PhaseNames lists the registered phases in execution order.
func (r *Runner[S]) PhaseNames() []string {
	out := make([]string, len(r.phases))
	for i, p := range r.phases {
		out[i] = p.Name()
	}
	return out
}

// Run executes the phases in order. Between phases it checks ctx: a
// cancelled or expired context aborts the pipeline and Run returns
// ctx.Err() (context.Canceled or context.DeadlineExceeded) without
// running later phases. A phase error likewise aborts the pipeline
// and is returned unwrapped. The returned Metrics always covers the
// phases that actually ran.
// When the context carries a trace.Tracer, the run becomes a
// "pipeline" span and every phase a "phase:<name>" child span (the
// bridge between the Observer seam and the trace layer); the phase's
// allocation delta and changed relation sizes become span attributes.
func (r *Runner[S]) Run(ctx context.Context, st S) (*Metrics, error) {
	start := time.Now()
	m := &Metrics{}
	ctx, runSpan := trace.StartSpan(ctx, "pipeline")
	var runErr error
	defer func() {
		runSpan.End(trace.Int("phases_run", len(m.Phases)), trace.Bool("error", runErr != nil))
	}()
	var prev map[string]int64
	sizer, hasSizer := any(st).(RelationSizer)
	if hasSizer {
		prev = sizer.RelationSizes()
	}
	for _, ph := range r.phases {
		if err := ctx.Err(); err != nil {
			m.Total = time.Since(start)
			runErr = err
			return m, err
		}
		if r.Observer != nil {
			r.Observer.PhaseStart(ph.Name(), st)
		}
		pctx, span := trace.StartSpan(ctx, "phase:"+ph.Name())
		before := heapAllocs()
		t0 := time.Now()
		err := ph.Run(pctx, st)
		wall := time.Since(t0)
		pm := PhaseMetrics{
			Name:       ph.Name(),
			Wall:       wall,
			AllocBytes: int64(heapAllocs() - before),
		}
		if d, ok := ph.(InputDeclarer); ok {
			pm.Inputs = d.Inputs()
		}
		if hasSizer {
			cur := sizer.RelationSizes()
			pm.Outputs = changedSizes(prev, cur)
			prev = cur
		}
		if span != nil {
			// The span's duration additionally covers the allocation
			// counter reads and the sizer snapshot; the wall attribute
			// is the phase body alone.
			span.End(phaseAttrs(pm)...)
		}
		m.Phases = append(m.Phases, pm)
		if r.Observer != nil {
			r.Observer.PhaseEnd(ph.Name(), st, pm)
		}
		if err != nil {
			m.Total = time.Since(start)
			runErr = err
			return m, err
		}
	}
	m.Total = time.Since(start)
	return m, nil
}

// heapAllocs reads the runtime's cumulative heap allocation counter.
// Unlike runtime.ReadMemStats it does not stop the world, so metering a
// phase never stalls concurrent analyses.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// phaseAttrs renders one phase's metrics as span attributes, outputs
// in sorted key order for deterministic exports.
func phaseAttrs(pm PhaseMetrics) []trace.Attr {
	attrs := make([]trace.Attr, 0, 2+len(pm.Outputs))
	attrs = append(attrs,
		trace.Int64("wall_ns", int64(pm.Wall)),
		trace.Int64("alloc_bytes", pm.AllocBytes))
	keys := make([]string, 0, len(pm.Outputs))
	for k := range pm.Outputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		attrs = append(attrs, trace.Int64("out."+k, pm.Outputs[k]))
	}
	return attrs
}

// changedSizes returns the entries of cur that are new or different
// from prev — the relations a phase produced or grew.
func changedSizes(prev, cur map[string]int64) map[string]int64 {
	var out map[string]int64
	for k, v := range cur {
		if pv, ok := prev[k]; !ok || pv != v {
			if out == nil {
				out = make(map[string]int64)
			}
			out[k] = v
		}
	}
	return out
}
