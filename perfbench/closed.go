package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// opTimeout is the deadline on one closed-loop analysis call. The
// slowest operation measured at this benchmark's baseline takes under
// a second; a call still running after this long is wedged.
const opTimeout = 60 * time.Second

// closedLoop is a workload with one caller that issues its next
// operation only after the previous one returned.
type closedLoop struct {
	// passLen is the number of operations in one pass over the inputs.
	// A window always ends on a pass boundary, so every window sees the
	// same mix of inputs whatever its length.
	passLen int
	// opName names the operation's span.
	opName string
	// freshHeap collects garbage before every operation, untimed. It
	// models a caller that runs each operation in a fresh process (the
	// batch user runs one regionwiz per executable); a long-lived caller
	// such as the watcher keeps its heap and pays its collections.
	freshHeap bool
	// op performs operation i. It is the only timed part.
	op func(ctx context.Context, i int, opts core.Options) (*core.Analysis, error)
	// check verifies operation i's report; it runs untimed.
	check func(i int, reportJSON []byte) error
	// klocParsed is the thousands of source lines operation i parsed.
	klocParsed func(i int) float64
	// finish, when set, runs the checks that need the whole window; it
	// returns one error per operation that failed them.
	finish func(ctx context.Context, opts core.Options) []error
	// next is the operation index the following window starts from.
	next int
}

// windowStats is what one measured window observed.
type windowStats struct {
	lat   []float64     // per-operation latency, ms, successful operations only
	busy  time.Duration // summed latency of every attempted operation
	tally tally
	// rt sums the runtime counters over the timed operations only, so a
	// collection forced between operations and the untimed checks are
	// not charged to the program.
	rt rtDelta
	// layer holds per-layer sums from the traced window; nil untraced.
	layer *layerSums
	// wedged is set when an operation ignored its deadline; the run
	// stops there.
	wedged bool
	// firstErr is the first failure, for the log.
	firstErr error
}

func (w *windowStats) fail(err error) {
	w.tally.add(failed)
	w.note(err)
}

func (w *windowStats) note(err error) {
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// opsPerSec is operations per second of one caller's busy time.
func (w windowStats) opsPerSec() float64 {
	return frac(float64(len(w.lat)), w.busy.Seconds())
}

// layerSums accumulates the traced window's per-layer numbers.
type layerSums struct {
	ops                   int
	phaseAlloc            map[string]float64 // bytes per phase name
	overhead              time.Duration      // Metrics.Total minus phase walls
	funcs, reachable      float64
	contexts              float64
	pts, heap, rounds     float64
	rpairs, ipairs        float64
	kloc                  float64
	filesParsed, filesAll float64
	direct                float64
}

// phaseSpans records, through the Options.Observer seam, when each
// pipeline phase started and ended.
type phaseSpans struct {
	starts map[string]time.Time
	done   []phaseSpan
}

type phaseSpan struct {
	name       string
	start, end time.Time
}

func (p *phaseSpans) observer() pipeline.Observer[*core.Analysis] {
	return pipeline.ObserverFuncs[*core.Analysis]{
		Start: func(name string, _ *core.Analysis) { p.starts[name] = time.Now() },
		End: func(name string, _ *core.Analysis, _ pipeline.PhaseMetrics) {
			p.done = append(p.done, phaseSpan{name, p.starts[name], time.Now()})
		},
	}
}

// guarded runs one analysis call under a deadline. A panic comes back
// as an error; a call that outlives its deadline by the grace period is
// reported as wedged and abandoned, and the caller stops the run.
func guarded(ctx context.Context, f func(ctx context.Context) (*core.Analysis, error)) (a *core.Analysis, err error, wedged bool) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	type result struct {
		a   *core.Analysis
		err error
	}
	ch := make(chan result, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- result{nil, fmt.Errorf("analysis panicked: %v", p)}
			}
		}()
		a, err := f(ctx)
		ch <- result{a, err}
	}()
	select {
	case r := <-ch:
		return r.a, r.err, false
	case <-time.After(opTimeout + 5*time.Second):
		return nil, fmt.Errorf("analysis ignored its %v deadline", opTimeout), true
	}
}

// window runs operations until seconds have passed and the current pass
// is complete. rec, when non-nil, traces the window: one span per
// operation and, through the observer, one child span per phase.
func (c *closedLoop) window(ctx context.Context, opts core.Options, seconds float64, rec *recorder) windowStats {
	var w windowStats
	if rec != nil {
		w.layer = &layerSums{phaseAlloc: make(map[string]float64)}
	}
	start := time.Now()
	for n := 0; ; n++ {
		if n%c.passLen == 0 && time.Since(start).Seconds() >= seconds {
			break
		}
		i := c.next
		c.next++
		o := opts
		var ps *phaseSpans
		if rec != nil {
			ps = &phaseSpans{starts: make(map[string]time.Time)}
			o.Observer = ps.observer()
		}
		if c.freshHeap {
			runtime.GC()
		}
		rt0 := readRuntime()
		t0 := time.Now()
		a, err, wedged := guarded(ctx, func(ctx context.Context) (*core.Analysis, error) { return c.op(ctx, i, o) })
		t1 := time.Now()
		w.rt.add(readRuntime().since(rt0))
		w.busy += t1.Sub(t0)
		if wedged {
			w.fail(err)
			w.wedged = true
			break
		}
		if err == nil {
			var data []byte
			if data, err = json.Marshal(a.Report); err == nil {
				err = c.check(i, data)
			}
		}
		if err != nil {
			w.fail(fmt.Errorf("operation %d: %w", i, err))
			continue
		}
		w.tally.add(okResult)
		w.lat = append(w.lat, ms(t1.Sub(t0)))
		if rec != nil {
			id := rec.add(c.opName, 0, t0, t1)
			for _, p := range ps.done {
				rec.add("phase:"+p.name, id, p.start, p.end)
			}
			w.layer.addOp(a, c.klocParsed(i))
		}
	}
	if c.finish != nil && !w.wedged {
		// An operation that passed its own check but fails a whole-window
		// check turns from success into failure.
		for _, err := range c.finish(ctx, opts) {
			w.tally.failures++
			w.note(err)
		}
	}
	return w
}

// warm runs operations untimed for the given seconds (at least one),
// so lazy initialization and heap growth are out of the window. Any
// failure aborts the run.
func (c *closedLoop) warm(ctx context.Context, opts core.Options, seconds float64) error {
	start := time.Now()
	for k := 0; k == 0 || time.Since(start).Seconds() < seconds; k++ {
		i := c.next
		c.next++
		a, err, _ := guarded(ctx, func(ctx context.Context) (*core.Analysis, error) { return c.op(ctx, i, opts) })
		if err == nil {
			var data []byte
			if data, err = json.Marshal(a.Report); err == nil {
				err = c.check(i, data)
			}
		}
		if err != nil {
			return fmt.Errorf("warm-up operation %d: %w", i, err)
		}
	}
	return nil
}

// coldLoop analyzes each program from scratch in turn. Every report is
// checked against the generator's plants and against the program's
// first report.
func coldLoop(progs []program) *closedLoop {
	seen := repeatCheck{}
	prog := func(i int) program { return progs[i%len(progs)] }
	return &closedLoop{
		passLen:   len(progs),
		opName:    "op:analyze",
		freshHeap: true,
		op: func(ctx context.Context, i int, opts core.Options) (*core.Analysis, error) {
			return core.AnalyzeSourceContext(ctx, opts, prog(i).sources)
		},
		check: func(i int, data []byte) error {
			p := prog(i)
			if err := p.ref.check(data); err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			return seen.check(p.name, data)
		},
		klocParsed: func(i int) float64 { return float64(prog(i).lines) / 1000 },
	}
}

// editState is the watcher's state: the snapshot of the last analyzed
// edit and the sources it was taken of.
type editState struct {
	snap     *core.Snapshot
	cur      map[string]string
	editable []string
	rng      *rand.Rand
	lastPath string
	// kept holds the states whose chained reports are re-derived from
	// scratch when the window ends: a seeded sample plus the last one.
	kept    []editSample
	seen    int
	sampler *rand.Rand
}

type editSample struct {
	op      int
	sources map[string]string
	canon   []byte
}

// editSamples is how many chained states besides the last one a window
// re-analyzes from scratch. Each costs a cold analysis of the largest
// executable, so a few suffice to catch a drifting chain.
const editSamples = 3

func newEditLoop(ctx context.Context, seed int64) (*closedLoop, error) {
	sources, editable, err := editProgram(seed)
	if err != nil {
		return nil, err
	}
	_, snap, err := core.AnalyzeSourceSnapshot(ctx, core.Options{}, sources)
	if err != nil {
		return nil, fmt.Errorf("initial snapshot: %w", err)
	}
	e := &editState{snap: snap, cur: sources, editable: editable,
		rng: rand.New(rand.NewSource(seed)), sampler: rand.New(rand.NewSource(seed + 1))}
	return &closedLoop{
		passLen: 1,
		opName:  "op:edit",
		op:      e.edit,
		check:   e.check,
		klocParsed: func(int) float64 {
			return float64(strings.Count(e.cur[e.lastPath], "\n")) / 1000
		},
		finish: e.finish,
	}, nil
}

// edit makes the next seeded body-only edit to one file and re-analyzes
// it incrementally against the previous edit's snapshot.
func (e *editState) edit(ctx context.Context, i int, opts core.Options) (*core.Analysis, error) {
	path := e.editable[e.rng.Intn(len(e.editable))]
	src := bodyEdit(e.cur[path], e.rng.Intn(1<<20), i+1)
	a, next, err := core.AnalyzeIncremental(ctx, opts, e.snap, map[string]string{path: src}, nil)
	if err != nil {
		return nil, err
	}
	e.snap, e.lastPath = next, path
	e.cur[path] = src
	return a, nil
}

// check keeps the state for the end-of-window comparison: the last one
// always, others by reservoir sampling.
func (e *editState) check(i int, data []byte) error {
	c, err := canonical(data)
	if err != nil {
		return err
	}
	s := editSample{op: i, sources: make(map[string]string, len(e.cur)), canon: c}
	for k, v := range e.cur {
		s.sources[k] = v
	}
	e.seen++
	switch {
	case len(e.kept) < editSamples+1:
		e.kept = append(e.kept, s)
	default:
		last := len(e.kept) - 1
		if j := e.sampler.Intn(e.seen - 1); j < editSamples {
			e.kept[j] = e.kept[last]
		}
		e.kept[last] = s
	}
	return nil
}

// finish re-analyzes each kept state from scratch: the chained
// incremental report must equal it.
func (e *editState) finish(ctx context.Context, opts core.Options) []error {
	var errs []error
	for _, s := range e.kept {
		opts.Observer = nil
		a, err, _ := guarded(ctx, func(ctx context.Context) (*core.Analysis, error) {
			return core.AnalyzeSourceContext(ctx, opts, s.sources)
		})
		var c []byte
		if err == nil {
			var data []byte
			if data, err = json.Marshal(a.Report); err == nil {
				c, err = canonical(data)
			}
		}
		if err == nil && !bytes.Equal(c, s.canon) {
			err = fmt.Errorf("edit %d: chained incremental report differs from a from-scratch analysis", s.op)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	e.kept, e.seen = nil, 0
	return errs
}

func (l *layerSums) addOp(a *core.Analysis, kloc float64) {
	l.ops++
	var walls time.Duration
	for _, p := range a.Metrics.Phases {
		l.phaseAlloc[p.Name] += float64(p.AllocBytes)
		walls += p.Wall
	}
	l.overhead += a.Metrics.Total - walls
	l.funcs += float64(len(a.Prog.Funcs))
	l.reachable += float64(len(a.Graph.ReachableFuncs()))
	st := a.Report.Stats
	l.contexts += float64(st.Contexts)
	l.pts += float64(a.Ptr.PtsSize())
	l.heap += float64(a.Ptr.HeapSize())
	l.rounds += float64(a.Ptr.SolverStats()["ptr_rounds"])
	l.rpairs += float64(st.RPairs)
	l.ipairs += float64(st.IPairs)
	l.kloc += kloc
	fr := a.Front
	l.filesParsed += float64(fr.ParseParsed)
	l.filesAll += float64(fr.ParseParsed + fr.ParseReused)
	if fr.CallGraphDirect {
		l.direct++
	}
}
