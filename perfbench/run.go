package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
)

// warmSeconds is how long untimed operations run before a closed-loop
// window. Latencies at this benchmark's baseline settle within about
// two seconds of a fresh process.
const warmSeconds = 2

func newClosedLoop(ctx context.Context, name string, seed int64) (*closedLoop, error) {
	switch name {
	case "corpus_cold":
		progs, err := corpusPrograms(seed)
		if err != nil {
			return nil, err
		}
		return coldLoop(progs), nil
	case "dense_solver":
		progs, err := densePrograms(seed)
		if err != nil {
			return nil, err
		}
		return coldLoop(progs), nil
	default:
		return newEditLoop(ctx, seed)
	}
}

// runClosed runs a closed-loop workload. Untraced, one window gives the
// end-to-end metrics. Traced, an untraced and a traced window of half
// the length each give the per-layer metrics and the tracing overhead.
func runClosed(r *runResult, cfg runConfig, rec *recorder) error {
	ctx := context.Background()
	var loop *closedLoop
	setup, err := timedSetup(func() (err error) {
		loop, err = newClosedLoop(ctx, r.workload, cfg.seed)
		return err
	}, nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	opts := core.Options{}
	if err := loop.warm(ctx, opts, warmSeconds); err != nil {
		return err
	}
	if !cfg.trace {
		w := loop.window(ctx, opts, cfg.seconds, nil)
		r.absorb(w.tally, w.firstErr)
		closedEndToEnd(r, setup, w)
		return nil
	}
	plain := loop.window(ctx, opts, cfg.seconds/2, nil)
	r.absorb(plain.tally, plain.firstErr)
	if plain.wedged {
		return nil
	}
	traced := loop.window(ctx, opts, cfg.seconds/2, rec)
	r.absorb(traced.tally, traced.firstErr)
	closedPerLayer(r, plain, traced, rec.snapshot())
	return nil
}

func (r *runResult) absorb(t tally, err error) {
	r.attempted += t.attempted
	r.failed += t.failures
	r.expected += t.expectedErrors
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func closedEndToEnd(r *runResult, setup time.Duration, w windowStats) {
	ops := float64(w.tally.attempted)
	tailP := 90.0
	set := func(name string, v float64) { r.set(name, unitOf(endToEnd, name), v) }
	set("setup_s", setup.Seconds())
	set("ops_per_s", w.opsPerSec())
	set("p50_ms", percentile(w.lat, 50))
	set("tail_ms", percentile(w.lat, tailP))
	set("alloc_mb_per_op", frac(w.rt.allocBytes, ops)/1e6)
	set("peak_rss_mb", peakRSSMB())
	r.detail = append(r.detail, tailDetail(len(w.lat), tailP))
}

// tailDetail states which percentile tail_ms is and whether the sample
// supports it by the percentile rule.
func tailDetail(n int, p float64) string {
	s := fmt.Sprintf("tail_ms is p%g over %d samples", p, n)
	if supportedTail(n) < p {
		s += fmt.Sprintf(" (UNDER-SAMPLED: fewer than 10 beyond it; the rule supports p%g)", supportedTail(n))
	}
	return s
}

func closedPerLayer(r *runResult, plain, traced windowStats, spans []span) {
	for _, d := range perLayer {
		r.set(d.Name, d.Unit, 0)
	}
	l := traced.layer
	ops := float64(l.ops)
	self, total := layerSelf(spans)
	msPer := func(layer string) float64 { return frac(ms(self[layer]), ops) }
	set := func(name string, v float64) { r.set(name, unitOf(perLayer, name), v) }
	set("cminor.parse_ms", msPer("cminor.parse"))
	set("cminor.check_ms", msPer("cminor.check"))
	set("cminor.parse_kloc_per_s", frac(l.kloc, self["cminor.parse"].Seconds()))
	set("cminor.files_reparsed_frac", frac(l.filesParsed, l.filesAll))
	set("ir.lower_ms", msPer("ir.lower"))
	set("ir.lower_alloc_mb", frac(l.phaseAlloc[core.PhaseLower], ops)/1e6)
	set("ir.funcs_lowered", frac(l.funcs, ops))
	set("ir.reachable_frac", frac(l.reachable, l.funcs))
	set("callgraph.ms", msPer("callgraph"))
	set("callgraph.direct_frac", frac(l.direct, ops))
	set("contexts.ms", msPer("contexts"))
	set("contexts.count", frac(l.contexts, ops))
	set("pointer.ms", msPer("pointer"))
	set("pointer.alloc_mb", frac(l.phaseAlloc[core.PhasePointer], ops)/1e6)
	set("pointer.pts_entries", frac(l.pts, ops))
	set("pointer.heap_edges", frac(l.heap, ops))
	set("pointer.rounds", frac(l.rounds, ops))
	set("core.relations_ms", msPer("core.relations"))
	set("core.pairs_ms", msPer("core.pairs"))
	set("core.post_ms", msPer("core.post"))
	set("core.region_pairs", frac(l.rpairs, ops))
	set("core.ipairs", frac(l.ipairs, ops))
	set("core.pipeline_overhead_ms", frac(ms(l.overhead), ops))
	set("runtime.gc_cpu_frac", frac(traced.rt.gcCPU, traced.rt.cpu))
	set("runtime.stw_pauses_per_op", frac(traced.rt.stwN, ops))
	set("runtime.stw_ms_per_op", frac(traced.rt.stwSeconds*1e3, ops))
	set("trace.ops_per_s", traced.opsPerSec())
	set("trace.overhead_frac", frac(plain.opsPerSec(), traced.opsPerSec())-1)
	r.detail = append(r.detail,
		fmt.Sprintf("traced window: %d operations; untraced window: %d at %.4g/s", l.ops, len(plain.lat), plain.opsPerSec()),
		shareLine(self, total))
}

// runServe runs serve_mixed: set-up generates the programs, their
// reference reports and the schedule, and starts the server.
func runServe(r *runResult, cfg runConfig, rec *recorder) error {
	ctx := context.Background()
	quietServiceLog()
	var sb *serveBench
	var windows []serveWindowPlan
	setup, err := timedSetup(func() error {
		progs, err := serveBases(cfg.seed)
		if err != nil {
			return err
		}
		for i := range progs {
			if err := progs[i].reference(ctx); err != nil {
				return err
			}
		}
		windows = planServe(cfg, progs)
		sb, err = startServe(progs)
		return err
	}, func() {
		if err := sb.close(); err != nil {
			r.firstErr = err
		}
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if err := sb.close(); err != nil && r.firstErr == nil {
			r.firstErr = fmt.Errorf("shutdown: %w", err)
		}
	}()
	if err := sb.warm(ctx); err != nil {
		return err
	}
	var done []serveWindow
	for _, wp := range windows {
		w := sb.window(ctx, wp.sched, wp.full, wp.traced)
		t := w.tally(cfg.serve.Limit.Value)
		r.absorb(t.tally, t.firstErr)
		done = append(done, w)
	}
	if !cfg.trace {
		serveEndToEnd(r, cfg, setup, done[0])
		return nil
	}
	servePerLayer(r, cfg, done[0], done[1], rec)
	return nil
}

// serveWindowPlan is one window's schedule and its pre-built full
// requests (zero for requests built from earlier responses).
type serveWindowPlan struct {
	sched  []sreq
	full   []sentFull
	traced bool
}

// planServe draws the schedule: one window untraced, or an untraced and
// a traced window of half the length each.
func planServe(cfg runConfig, progs []serveProg) []serveWindowPlan {
	nBDD := 0
	for _, p := range progs {
		if p.backend == "bdd" {
			nBDD++
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	secs, traced := []float64{cfg.seconds}, []bool{false}
	if cfg.trace {
		secs, traced = []float64{cfg.seconds / 2, cfg.seconds / 2}, []bool{false, true}
	}
	var out []serveWindowPlan
	for wi := range secs {
		wp := serveWindowPlan{traced: traced[wi],
			sched: schedule(rng, cfg.serve.Rate.Value, secs[wi], cfg.serve.Classes, len(progs)-nBDD, nBDD)}
		wp.full = make([]sentFull, len(wp.sched))
		for i, q := range wp.sched {
			if q.class == classCold || q.class == classBDD {
				p := &progs[q.prog]
				src := p.variant(fmt.Sprintf("w%d-r%d", wi, i), q.fileIdx)
				wp.full[i] = sentFull{body: fullBody(src, p.backend, wp.traced), prog: q.prog, sources: src}
			}
		}
		out = append(out, wp)
	}
	return out
}

// serveTally is a window's outcome accounting.
type serveTally struct {
	tally    tally
	firstErr error
	lat      []float64 // ms from the scheduled send, requests that did not fail
	late     []float64 // generator lateness, ms
	withinOK int       // requests that succeeded within the latency limit
	retried  int       // requests that recovered from a 409 with full sources
}

func (w serveWindow) tally(limitMS float64) serveTally {
	var t serveTally
	for _, res := range w.results {
		t.tally.add(res.outcome)
		if res.retried {
			t.retried++
		}
		t.late = append(t.late, ms(res.lateness()))
		if res.outcome == failed {
			if t.firstErr == nil {
				t.firstErr = res.err
			}
			continue
		}
		l := ms(res.latency())
		t.lat = append(t.lat, l)
		if l <= limitMS {
			t.withinOK++
		}
	}
	return t
}

func serveEndToEnd(r *runResult, cfg runConfig, setup time.Duration, w serveWindow) {
	t := w.tally(cfg.serve.Limit.Value)
	span := w.end.Sub(w.start).Seconds()
	set := func(name string, v float64) { r.set(name, unitOf(endToEnd, name), v) }
	set("setup_s", setup.Seconds())
	set("ops_per_s", frac(float64(len(t.lat)), span))
	set("p50_ms", percentile(t.lat, 50))
	set("tail_ms", percentile(t.lat, 99))
	set("alloc_mb_per_op", frac(w.rt.allocBytes, float64(t.tally.attempted))/1e6)
	set("peak_rss_mb", peakRSSMB())
	r.sloMiss = 1 - frac(float64(t.withinOK), float64(t.tally.attempted))
	r.detail = append(r.detail, tailDetail(len(t.lat), 99),
		fmt.Sprintf("open loop at %g/s, latency limit %g ms on p99; generator lateness p99 %.3g ms; %d requests recovered from a 409 with full sources",
			cfg.serve.Rate.Value, cfg.serve.Limit.Value, percentile(t.late, 99), t.retried))
}

func servePerLayer(r *runResult, cfg runConfig, plain, traced serveWindow, rec *recorder) {
	for _, d := range perLayer {
		r.set(d.Name, d.Unit, 0)
	}
	set := func(name string, v float64) { r.set(name, unitOf(perLayer, name), v) }
	byClass := map[string][]float64{}
	var transport []float64
	for _, res := range traced.results {
		if res.outcome == failed {
			continue
		}
		byClass[res.class] = append(byClass[res.class], ms(res.latency()))
		id := rec.add("op:"+res.class, 0, res.sent, res.done)
		if res.traceDoc == nil {
			continue
		}
		reqDur, err := importTrace(rec, res.traceDoc, id, int64(res.sent.Sub(rec.epoch)))
		if err != nil {
			r.firstErr = err
			continue
		}
		transport = append(transport, ms(res.done.Sub(res.sent)-reqDur))
	}
	for _, c := range []string{classCold, classRepeat, classDelta, classQuery, classExplain, classBDD} {
		set("service."+c+"_p50_ms", percentile0(byClass[c], 50))
	}
	spans := rec.snapshot()
	self, total := layerSelf(spans)
	runs, encodes := 0.0, 0.0
	var admitMax time.Duration // longest admission wait of the traced window
	for _, s := range spans {
		switch s.Name {
		case "pipeline":
			runs++
		case "service.encode":
			encodes++
		case "service.admission_wait":
			admitMax = max(admitMax, s.dur())
		}
	}
	msPer := func(layer string) float64 { return frac(ms(self[layer]), runs) }
	set("cminor.parse_ms", msPer("cminor.parse"))
	set("cminor.check_ms", msPer("cminor.check"))
	set("ir.lower_ms", msPer("ir.lower"))
	set("callgraph.ms", msPer("callgraph"))
	set("contexts.ms", msPer("contexts"))
	set("pointer.ms", msPer("pointer"))
	set("core.relations_ms", msPer("core.relations"))
	set("core.pairs_ms", msPer("core.pairs"))
	set("core.post_ms", msPer("core.post"))
	set("core.pipeline_overhead_ms", msPer("core.pipeline"))
	set("service.encode_ms", frac(ms(self["service.encode"]), encodes))
	set("service.transport_ms", percentile0(transport, 50))

	b := traced.bdd
	set("bdd.pairs_ms", frac(ms(b.pairs), float64(b.runs)))
	set("bdd.peak_nodes", frac(b.peakNodes, float64(b.runs)))
	set("bdd.cache_hit_frac", frac(b.cacheHits, b.lookups))

	s0, s1 := traced.stats0, traced.stats1
	ex0, ex1 := s0.Histograms["explain"], s1.Histograms["explain"]
	set("datalog.explain_ms", frac(ms(ex1.Sum-ex0.Sum), float64(ex1.Count-ex0.Count)))
	set("service.admission_wait_mean_ms", frac(ms(s1.QueueWait-s0.QueueWait), float64(s1.QueueWaits-s0.QueueWaits)))
	set("service.admission_wait_max_ms", ms(admitMax))
	reqs := float64(s1.Requests - s0.Requests)
	set("service.cache_hit_frac", frac(float64(s1.Hits-s0.Hits), reqs))
	set("service.coalesced_frac", frac(float64(s1.Coalesced-s0.Coalesced), reqs))
	set("service.snapshot_hit_frac", frac(float64(s1.SnapshotHits-s0.SnapshotHits), float64(s1.DeltaRequests-s0.DeltaRequests)))
	set("service.overloads", float64(s1.Overloads-s0.Overloads))

	t := traced.tally(cfg.serve.Limit.Value)
	ops := float64(t.tally.attempted)
	set("loadgen.lateness_p99_ms", percentile0(t.late, 99))
	set("runtime.gc_cpu_frac", frac(traced.rt.gcCPU, traced.rt.cpu))
	set("runtime.stw_pauses_per_op", frac(traced.rt.stwN, ops))
	set("runtime.stw_ms_per_op", frac(traced.rt.stwSeconds*1e3, ops))
	set("trace.ops_per_s", frac(float64(len(t.lat)), traced.end.Sub(traced.start).Seconds()))
	tp := plain.tally(cfg.serve.Limit.Value)
	set("trace.overhead_frac", frac(percentile0(t.lat, 50), percentile0(tp.lat, 50))-1)
	r.detail = append(r.detail,
		fmt.Sprintf("traced window: %d requests, %d pipeline runs; tracing overhead is on p50 latency (open loop: throughput is the offered rate)", len(traced.results), int(runs)),
		shareLine(self, total))
}

// percentile0 is percentile with 0 for an empty sample, for per-class
// figures of classes a short window may not draw.
func percentile0(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(xs, p)
}
