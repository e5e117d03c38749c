package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/workloads"
)

// requestTimeout is the client-side deadline on every serve_mixed
// request. It is far above the latency limit, so it only fires when the
// service is wedged, and then the request counts as failed instead of
// hanging the run.
const requestTimeout = 10 * time.Second

// shutdownTimeout bounds the server's shutdown and the service's Close.
const shutdownTimeout = 10 * time.Second

// serviceConfig is the daemon's default configuration except for the
// result cache: each cached result holds a whole analysis, and the
// default 128 entries took the process past 500 MB with this mix.
// Deltas, queries and explanations name the newest result, so with 64
// entries its key is evicted only behind a backlog of 64 fresh runs;
// the client then recovers as the API asks (see do).
func serviceConfig(obs pipeline.Observer[*core.Analysis]) service.Config {
	return service.Config{
		QueueDepth:     64,
		CacheEntries:   64,
		RequestTimeout: 2 * time.Minute,
		Observer:       obs,
	}
}

// Request classes of the serve_mixed mix.
const (
	classCold    = "cold"    // full /v1/analyze of a source set never sent before
	classRepeat  = "hit"     // a recent request again: a cache hit or coalesced
	classDelta   = "delta"   // delta /v1/analyze against a returned key
	classQuery   = "query"   // /v1/query on a pair from the report
	classExplain = "explain" // /v1/explain of every warning
	classBDD     = "bdd"     // full /v1/analyze on the BDD backend
	classBroken  = "broken"  // delta with a syntax error: a typed 422
)

// serveProg is one base program of the serve mix with its single-
// request reference report, computed during set-up.
type serveProg struct {
	program
	paths    []string
	backend  string
	canon    []byte
	warnings []reportWarning
}

// serveBases generates the base programs: mid-sized split programs on
// the explicit backend and small filler-free ones on the BDD backend
// (a 4/5/3 program takes about a minute of BDD pair solving, so BDD
// traffic must stay on small programs). The BDD programs have no
// filler; the seed changes them through the plant order.
func serveBases(seed int64) ([]serveProg, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []serveProg
	for i := 0; i < 4; i++ {
		spec := workloads.Spec{
			Name: fmt.Sprintf("svc%d", i), Exes: 1, Stages: 6, Depth: 2, Fanout: 2,
			FillerFuncs: 20, Interface: []string{"apr", "rc"}[i%2], SharedLib: i < 2,
			Plants: seededPlants(rng),
		}
		pkg := workloads.Generate(spec, seed+100+int64(i))
		p, err := newServeProg(pkg.Exes[0], pkg.SplitSourcesFor(pkg.Exes[0], 3), "")
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	for i := 0; i < 2; i++ {
		spec := workloads.Spec{
			Name: fmt.Sprintf("bdd%d", i), Exes: 1, Stages: 6, Depth: 2, Fanout: 2,
			Interface: []string{"apr", "rc"}[i%2], Plants: seededPlants(rng),
		}
		pkg := workloads.Generate(spec, seed+200+int64(i))
		p, err := newServeProg(pkg.Exes[0], pkg.SourcesFor(pkg.Exes[0]), "bdd")
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func newServeProg(exe workloads.Exe, sources map[string]string, backend string) (serveProg, error) {
	prog, err := newProgram(exe, sources)
	if err != nil {
		return serveProg{}, err
	}
	p := serveProg{program: prog, backend: backend}
	for path := range sources {
		p.paths = append(p.paths, path)
	}
	sort.Strings(p.paths)
	return p, nil
}

// reference analyzes the program alone, once, checks the report against
// the generator's plants, and keeps it: every served response for this
// program must match it.
func (p *serveProg) reference(ctx context.Context) error {
	opts := core.Options{}
	if p.backend == "bdd" {
		opts.Solver.Backend = core.BDDBackend
	}
	a, err := core.AnalyzeSourceContext(ctx, opts, p.sources)
	if err != nil {
		return fmt.Errorf("reference for %s: %w", p.name, err)
	}
	data, err := json.Marshal(a.Report)
	if err != nil {
		return err
	}
	if err := p.ref.check(data); err != nil {
		return fmt.Errorf("reference for %s: %w", p.name, err)
	}
	if p.canon, err = canonical(data); err != nil {
		return err
	}
	r, err := parseReport(data)
	if err != nil {
		return err
	}
	if len(r.Warnings) == 0 {
		return fmt.Errorf("reference for %s has no warnings to query or explain", p.name)
	}
	p.warnings = r.Warnings
	return nil
}

// variant is the program with a comment appended to one file: a source
// set no request has sent before, whose report must equal the base's
// because no line before the comment moved.
func (p *serveProg) variant(tag string, fileIdx int) map[string]string {
	out := make(map[string]string, len(p.sources))
	for k, v := range p.sources {
		out[k] = v
	}
	path := p.paths[fileIdx%len(p.paths)]
	out[path] += "\n/* " + tag + " */\n"
	return out
}

// sreq is one scheduled request.
type sreq struct {
	at      time.Duration // offset from the window's start
	class   string
	prog    int // base program for cold and bdd
	fileIdx int
	pick    int // seeded choice among recent requests or report warnings
	reverse bool
}

// schedule draws a seeded open-loop arrival schedule at the fixed rate:
// rate × seconds requests, each sent at a seeded uniform offset inside
// its own 1/rate slot. Exponential (Poisson) gaps were tried first;
// their bursts moved p99 by about 15% from one seed to the next, more
// than a regression bound can absorb, while slotted arrivals still
// send regardless of completions. The classes share the traffic
// equally: they are dealt from a shuffled deck holding each class as
// often as any other (to within one), and each class cycles through its
// programs, so every seed offers the same mix of work.
func schedule(rng *rand.Rand, rate float64, seconds float64, classes []string, nExplicit, nBDD int) []sreq {
	n := int(math.Round(rate * seconds))
	deck := make([]string, n)
	for i := range deck {
		deck[i] = classes[i%len(classes)]
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	seen := map[string]int{}
	out := make([]sreq, n)
	for i := range out {
		at := (float64(i) + rng.Float64()) / rate
		r := sreq{at: time.Duration(at * float64(time.Second)), class: deck[i],
			fileIdx: rng.Intn(1 << 20), pick: rng.Intn(1 << 20), reverse: rng.Intn(2) == 0}
		k := seen[r.class]
		seen[r.class]++
		if r.class == classBDD {
			r.prog = nExplicit + k%nBDD
		} else {
			r.prog = k % nExplicit
		}
		out[i] = r
	}
	return out
}

// serveBench is the in-process server, its client and the shared state
// requests read at send time.
type serveBench struct {
	progs  []serveProg
	svc    *service.Service
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	obs    *bddObserver

	mu     sync.Mutex
	recent []sentFull // most recent full requests, newest last
	latest keyRef     // newest completed explicit-backend result
	nextID int
}

type sentFull struct {
	body    []byte
	prog    int
	sources map[string]string
}

type keyRef struct {
	key     string
	prog    int
	sources map[string]string
}

// recentWindow is how many recent full requests a repeat picks from.
const recentWindow = 4

func startServe(progs []serveProg) (*serveBench, error) {
	obs := &bddObserver{}
	svc := service.New(serviceConfig(obs.observer()))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	conns := runtime.NumCPU()
	sb := &serveBench{
		progs:  progs,
		svc:    svc,
		srv:    &http.Server{Handler: service.NewHandler(svc)},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		obs:    obs,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() { sb.served <- sb.srv.Serve(ln) }()
	return sb, nil
}

// quietServiceLog drops the service's per-request log lines (a warning
// per expected 422). They are still formatted, so their cost stays in
// the measurement; only the write is skipped.
func quietServiceLog() {
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
}

// close shuts the server down within shutdownTimeout. A service whose
// Close hangs (a wedged run) is reported, not waited on.
func (sb *serveBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	err := sb.srv.Shutdown(ctx)
	if serr := <-sb.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	sb.client.CloseIdleConnections()
	closed := make(chan struct{})
	go func() {
		sb.svc.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-ctx.Done():
		return fmt.Errorf("service Close did not return within %v", shutdownTimeout)
	}
	return err
}

// warm sends one request per base program, untimed, so that connections
// are open, the result cache holds keys to start deltas and queries
// from, and one-time initialization is out of the window.
func (sb *serveBench) warm(ctx context.Context) error {
	for i, p := range sb.progs {
		src := p.variant("warm", 0)
		f := sentFull{body: fullBody(src, p.backend, false), prog: i, sources: src}
		res := sb.do(ctx, sb.fullExchange(classCold, f, false), time.Now())
		res.judge()
		if res.outcome != okResult {
			return fmt.Errorf("warm-up request for %s failed: %v", p.name, res.err)
		}
		sb.recent = append(sb.recent, f)
	}
	return nil
}

func fullBody(sources map[string]string, backend string, trace bool) []byte {
	req := service.Request{Sources: sources, Trace: trace}
	req.Options.Backend = backend
	data, err := json.Marshal(req)
	if err != nil {
		panic(err) // a map of strings always marshals
	}
	return data
}

// exchange is one HTTP request and how to judge its answer.
type exchange struct {
	class    string
	method   string
	url      string
	body     []byte
	wantKind string // typed error a broken request must return
	// verify checks a 200 body; judge runs it after the window.
	verify func(body []byte) error
	// publish, if set, reads what later requests need from a 200 body
	// as soon as it arrives.
	publish func(body []byte)
	// fullSources is the whole source set behind a delta, query or
	// explanation, sent in full when the key it names was evicted.
	fullSources map[string]string
	// traced asks the service for its trace of an analyze request.
	traced bool
}

// result is one finished exchange.
type result struct {
	class     string
	scheduled time.Time
	sent      time.Time
	done      time.Time
	outcome   outcome
	err       error
	traceDoc  []byte
	// retried marks a request that recovered from a 409 by sending
	// full sources.
	retried bool
	// ex, status and body are the exchange and its raw answer, kept
	// until judge checks them.
	ex     exchange
	status int
	body   []byte
}

// latency is measured from the scheduled send time, so a stall also
// charges the wait it imposes on requests due during it.
func (r result) latency() time.Duration { return r.done.Sub(r.scheduled) }

// lateness is how late the generator actually sent.
func (r result) lateness() time.Duration { return r.sent.Sub(r.scheduled) }

func (sb *serveBench) do(ctx context.Context, ex exchange, scheduled time.Time) result {
	res := result{class: ex.class, scheduled: scheduled, sent: time.Now()}
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	status, data, err := sb.roundTrip(ctx, ex.method, ex.url, ex.body)
	if err == nil && status == http.StatusConflict && ex.fullSources != nil {
		// The key's snapshot or result was evicted while the request
		// waited. Recover as the API asks: a delta is resent with full
		// sources; a query or explanation re-runs the analysis, whose
		// content-addressed key comes back the same, and asks again.
		res.retried = true
		full := fullBody(ex.fullSources, "", ex.traced)
		if ex.method == http.MethodPost {
			status, data, err = sb.roundTrip(ctx, http.MethodPost, "/v1/analyze", full)
		} else if _, _, err = sb.roundTrip(ctx, http.MethodPost, "/v1/analyze", full); err == nil {
			status, data, err = sb.roundTrip(ctx, ex.method, ex.url, nil)
		}
	}
	res.done = time.Now()
	if err != nil {
		res.outcome, res.err = failed, err
		return res
	}
	res.ex, res.status, res.body = ex, status, data
	if status == http.StatusOK && ex.publish != nil {
		ex.publish(data)
	}
	return res
}

// judge checks a returned answer and sets the request's outcome. An
// open-loop window judges its requests only after it ends, so that the
// checks' CPU time and allocations stay out of the measurement. A
// request that failed in transport is already judged.
func (res *result) judge() {
	if res.status == 0 {
		return
	}
	ex, status, data := res.ex, res.status, res.body
	res.body = nil
	kind := ""
	verified := false
	if status == http.StatusOK {
		if err := ex.verify(data); err != nil {
			res.err = err
		} else {
			verified = true
		}
	} else {
		var e struct {
			Error struct {
				Kind string `json:"kind"`
			} `json:"error"`
		}
		json.Unmarshal(data, &e) // a body that is not an error document leaves kind empty
		kind = e.Error.Kind
		res.err = fmt.Errorf("%s %s: status %d kind %q", ex.method, ex.url, status, kind)
	}
	res.outcome = classifyHTTP(status, kind, ex.wantKind, verified)
	if res.outcome != failed {
		res.err = nil
	}
	if ex.traced && status == http.StatusOK {
		var ar struct {
			Trace json.RawMessage `json:"trace"`
		}
		if json.Unmarshal(data, &ar) == nil {
			res.traceDoc = ar.Trace
		}
	}
}

// roundTrip sends one request and reads the whole answer.
func (sb *serveBench) roundTrip(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, sb.base+url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := sb.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (sb *serveBench) fullExchange(class string, f sentFull, traced bool) exchange {
	return exchange{class: class, method: http.MethodPost, url: "/v1/analyze", body: f.body,
		verify: sb.analyzeCheck(f.prog), publish: sb.publishKey(f.prog, f.sources), traced: traced}
}

// analyzeCheck verifies an analyze body against the program's
// reference.
func (sb *serveBench) analyzeCheck(prog int) func([]byte) error {
	return func(data []byte) error {
		var ar struct {
			Report json.RawMessage `json:"report"`
		}
		if err := json.Unmarshal(data, &ar); err != nil {
			return fmt.Errorf("decode analyze response: %w", err)
		}
		c, err := canonical(ar.Report)
		if err != nil {
			return err
		}
		if !bytes.Equal(c, sb.progs[prog].canon) {
			return fmt.Errorf("%s: report differs from the single-request reference", sb.progs[prog].name)
		}
		return nil
	}
}

// publishKey makes an explicit-backend result the base of later deltas
// and queries. Only results computed just now are published: a cache
// hit's snapshot may already have left the service's small snapshot
// store. It decodes nothing but the key and the cached flag; a wrong
// report fails the run when the window is judged.
func (sb *serveBench) publishKey(prog int, sources map[string]string) func([]byte) {
	if sb.progs[prog].backend != "" {
		return nil
	}
	return func(data []byte) {
		var ar struct {
			Key    string `json:"key"`
			Cached bool   `json:"cached"`
		}
		if json.Unmarshal(data, &ar) != nil || ar.Cached {
			return
		}
		sb.mu.Lock()
		sb.latest = keyRef{key: ar.Key, prog: prog, sources: sources}
		sb.mu.Unlock()
	}
}

// build turns a scheduled request into an exchange, reading the state
// earlier responses left behind.
func (sb *serveBench) build(r sreq, full sentFull, traced bool) exchange {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	switch r.class {
	case classCold, classBDD:
		sb.recent = append(sb.recent, full)
		if len(sb.recent) > recentWindow {
			sb.recent = sb.recent[1:]
		}
		return sb.fullExchange(r.class, full, traced)
	case classRepeat:
		return sb.fullExchange(classRepeat, sb.recent[r.pick%len(sb.recent)], traced)
	}
	base := sb.latest
	p := &sb.progs[base.prog]
	path := p.paths[r.fileIdx%len(p.paths)]
	sb.nextID++
	switch r.class {
	case classDelta, classBroken:
		content := p.sources[path] + fmt.Sprintf("\n/* delta %d */\n", sb.nextID)
		if r.class == classBroken {
			content += "int broken(( {\n"
		}
		sources := make(map[string]string, len(base.sources))
		for k, v := range base.sources {
			sources[k] = v
		}
		sources[path] = content
		req := service.Request{Base: base.key, Changed: map[string]string{path: content}, Trace: traced}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // a map of strings always marshals
		}
		ex := exchange{class: r.class, method: http.MethodPost, url: "/v1/analyze", body: body,
			verify: sb.analyzeCheck(base.prog), publish: sb.publishKey(base.prog, sources),
			fullSources: sources, traced: traced}
		if r.class == classBroken {
			ex.wantKind = "parse"
		}
		return ex
	case classQuery:
		w := p.warnings[r.pick%len(p.warnings)]
		src, _, _, _ := sitePos(w.SrcSite)
		dst, _, _, _ := sitePos(w.DstSite)
		if r.reverse {
			src, dst = dst, src
		}
		want := false
		for _, o := range p.warnings {
			oSrc, _, _, _ := sitePos(o.SrcSite)
			oDst, _, _, _ := sitePos(o.DstSite)
			want = want || (oSrc == src && oDst == dst)
		}
		q := url.Values{"key": {base.key}, "src": {src}, "dst": {dst}}
		return exchange{class: classQuery, method: http.MethodGet, url: "/v1/query?" + q.Encode(),
			verify: func(data []byte) error { return checkQuery(data, want) }, fullSources: base.sources}
	default: // classExplain
		q := url.Values{"key": {base.key}, "warning": {"all"}}
		return exchange{class: classExplain, method: http.MethodGet, url: "/v1/explain?" + q.Encode(),
			verify: func(data []byte) error { return checkExplain(data, p.warnings) }, fullSources: base.sources}
	}
}

// checkQuery: the verdict must agree with the reference report, where a
// pair is inconsistent exactly when a warning joins its two sites.
func checkQuery(data []byte, want bool) error {
	var qr service.QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		return fmt.Errorf("decode query response: %w", err)
	}
	if qr.Answer == nil || qr.Schema != core.QuerySchemaV1 {
		return fmt.Errorf("query response without an answer")
	}
	if qr.Answer.Inconsistent != want {
		return fmt.Errorf("query %s -> %s: inconsistent=%v, report says %v",
			qr.Answer.Src, qr.Answer.Dst, qr.Answer.Inconsistent, want)
	}
	return nil
}

// checkExplain: one well-formed tree per report warning, in order.
func checkExplain(data []byte, warnings []reportWarning) error {
	var er service.ExplainResponse
	if err := json.Unmarshal(data, &er); err != nil {
		return fmt.Errorf("decode explain response: %w", err)
	}
	if er.Schema != core.ExplainSchemaV1 || er.WarningsTotal != len(warnings) || len(er.Explanations) != len(warnings) {
		return fmt.Errorf("explain: schema %q, %d of %d trees for %d warnings",
			er.Schema, len(er.Explanations), er.WarningsTotal, len(warnings))
	}
	for i, e := range er.Explanations {
		if e == nil || e.Schema != core.ExplainSchemaV1 || e.Warning != i+1 ||
			e.Message != warnings[i].Message || e.Tree == nil || e.Tree.Kind == "" {
			return fmt.Errorf("explain: tree %d is malformed or out of order", i+1)
		}
	}
	return nil
}

// serveWindow is what one open-loop window observed.
type serveWindow struct {
	results []result
	start   time.Time
	end     time.Time
	rt      rtDelta
	stats0  service.Stats
	stats1  service.Stats
	bdd     bddSums
}

// window sends the schedule open loop: each request goes out at its
// time whether or not earlier ones have returned. The answers are
// judged once the window's figures are read.
func (sb *serveBench) window(ctx context.Context, sched []sreq, full []sentFull, traced bool) serveWindow {
	w := serveWindow{stats0: sb.svc.Stats()}
	sb.obs.reset(traced)
	rt0 := readRuntime()
	out := make([]result, len(sched))
	w.start = time.Now()
	offsets := make([]time.Duration, len(sched))
	for i, r := range sched {
		offsets[i] = r.at
	}
	openLoop(w.start, offsets, func(i int) func(due time.Time) {
		ex := sb.build(sched[i], full[i], traced)
		return func(due time.Time) { out[i] = sb.do(ctx, ex, due) }
	})
	w.end = time.Now()
	w.rt = readRuntime().since(rt0)
	w.stats1 = sb.svc.Stats()
	w.bdd = sb.obs.sums()
	for i := range out {
		out[i].judge()
	}
	w.results = out
	return w
}

// openLoop sends on a schedule regardless of earlier requests: at each
// offset from start it calls prepare(i) on the dispatching goroutine
// (so state read at send time is read in schedule order), then runs the
// returned send in its own goroutine with the due time. It returns when
// every send has returned; each send must be bounded by its own
// deadline.
func openLoop(start time.Time, offsets []time.Duration, prepare func(i int) func(due time.Time)) {
	var wg sync.WaitGroup
	for i, off := range offsets {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		send := prepare(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(due)
		}()
	}
	wg.Wait()
}

// bddObserver reads the BDD kernel counters at the end of each BDD
// pairs phase, through the service's Config.Observer seam.
type bddObserver struct {
	on atomic.Bool
	mu sync.Mutex
	s  bddSums
}

type bddSums struct {
	runs               int
	pairs              time.Duration
	peakNodes          float64
	cacheHits, lookups float64
}

func (o *bddObserver) observer() pipeline.Observer[*core.Analysis] {
	return pipeline.ObserverFuncs[*core.Analysis]{
		End: func(name string, a *core.Analysis, m pipeline.PhaseMetrics) {
			if name != core.PhasePairs || a.Opts.Solver.Backend != core.BDDBackend || !o.on.Load() {
				return
			}
			st := a.BDDStats()
			o.mu.Lock()
			o.s.runs++
			o.s.pairs += m.Wall
			o.s.peakNodes += float64(st.PeakNodes)
			o.s.cacheHits += float64(st.CacheHits)
			o.s.lookups += float64(st.CacheHits + st.CacheMisses)
			o.mu.Unlock()
		},
	}
}

func (o *bddObserver) reset(on bool) {
	o.mu.Lock()
	o.s = bddSums{}
	o.mu.Unlock()
	o.on.Store(on)
}

func (o *bddObserver) sums() bddSums {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.s
}

// traceEvent is one span of the service's wire trace (Chrome
// trace_event form, microseconds).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// importTrace records a response's server spans under the client's
// operation span. The server's clock starts when its handler does; its
// spans are placed from the client span's start, which keeps every
// interval the server reported and their nesting.
func importTrace(rec *recorder, doc []byte, parent uint64, clientStart int64) (requestDur time.Duration, err error) {
	var d struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return 0, fmt.Errorf("decode wire trace: %w", err)
	}
	ids := make(map[uint64]uint64) // server span id -> recorder id
	// Events come sorted by start time, so a parent precedes its
	// children.
	for _, ev := range d.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		sid, _ := ev.Args["span_id"].(float64)
		p := parent
		if ps, ok := ev.Args["parent_span"].(float64); ok {
			if mapped, ok := ids[uint64(ps)]; ok {
				p = mapped
			}
		}
		start := clientStart + int64(ev.Ts*1e3)
		ids[uint64(sid)] = rec.addAt(ev.Name, p, start, start+int64(ev.Dur*1e3))
		if ev.Name == "service.request" {
			requestDur = time.Duration(ev.Dur * 1e3)
		}
	}
	return requestDur, nil
}
