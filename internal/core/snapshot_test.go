package core

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"sync"
	"testing"
)

// stableReport renders a report with the volatile stats (wall times,
// per-phase metrics) stripped, for comparing runs that took different
// paths to the same answer.
func stableReport(t *testing.T, r *Report) string {
	t.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	stats := m["stats"].(map[string]interface{})
	delete(stats, "time_ms")
	delete(stats, "phases")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("remarshal report: %v", err)
	}
	return string(out)
}

// incrSources is a two-file program: lib.c defines helpers, main.c
// drives them. Edits to main.c's body leave lib.c untouched.
func incrSources(body string) map[string]string {
	return map[string]string{
		"lib.c": rcPrelude + `
struct conn_t { int fd; struct conn_t *next; };
struct conn_t *mkconn(region_t *r) {
    struct conn_t *c;
    c = ralloc(r);
    return c;
}
void conn_link(struct conn_t *x, struct conn_t *y) {
    x->next = y;
}`,
		"main.c": rcPrelude + `
struct conn_t;
extern struct conn_t *mkconn(region_t *r);
extern void conn_link(struct conn_t *x, struct conn_t *y);
int main(void) {
    region_t *r;
    region_t *subr;
    struct conn_t *a;
    struct conn_t *b;
    r = rnew(NULL);
    subr = rnew(r);
    a = mkconn(r);
    b = mkconn(subr);
` + body + `
    return 0;
}`,
	}
}

func TestIncrementalBodyEditMatchesFromScratch(t *testing.T) {
	ctx := context.Background()
	_, snap, err := AnalyzeSourceSnapshot(ctx, Options{}, incrSources("conn_link(a, b);"))
	if err != nil {
		t.Fatalf("base analyze: %v", err)
	}

	edited := incrSources("conn_link(b, a);") // flips the inconsistency direction
	inc, _, err := AnalyzeIncremental(ctx, Options{}, snap,
		map[string]string{"main.c": edited["main.c"]}, nil)
	if err != nil {
		t.Fatalf("incremental analyze: %v", err)
	}
	full, _, err := AnalyzeSourceSnapshot(ctx, Options{}, edited)
	if err != nil {
		t.Fatalf("from-scratch analyze: %v", err)
	}

	if got, want := stableReport(t, inc.Report), stableReport(t, full.Report); got != want {
		t.Fatalf("incremental report differs from from-scratch:\nincremental: %s\nfull:        %s", got, want)
	}
	f := inc.Front
	if f.ParseReused != 1 || f.ParseParsed != 1 {
		t.Fatalf("parse reuse = %d/%d, want 1 reused / 1 parsed", f.ParseReused, f.ParseParsed)
	}
	if f.CheckReused != 1 || f.CheckChecked != 1 {
		t.Fatalf("check reuse = %d/%d, want 1 reused / 1 checked", f.CheckReused, f.CheckChecked)
	}
	if f.LowerReused != 1 || f.LowerLowered != 1 {
		t.Fatalf("lower reuse = %d/%d, want 1 reused / 1 lowered", f.LowerReused, f.LowerLowered)
	}
	if !f.CallGraphDirect {
		t.Fatalf("call graph took the fixpoint path on a direct-call program")
	}
	// The reuse counters surface in the report's phase outputs.
	var parse *PhaseStat
	for i := range inc.Report.Stats.Phases {
		if inc.Report.Stats.Phases[i].Name == PhaseParse {
			parse = &inc.Report.Stats.Phases[i]
		}
	}
	if parse == nil || parse.Outputs["parse_files_reused"] != 1 {
		t.Fatalf("parse phase outputs missing reuse counter: %+v", parse)
	}
}

func TestIncrementalSignatureChangeFallsBack(t *testing.T) {
	ctx := context.Background()
	base := incrSources("conn_link(a, b);")
	_, snap, err := AnalyzeSourceSnapshot(ctx, Options{}, base)
	if err != nil {
		t.Fatalf("base analyze: %v", err)
	}

	// Adding a function changes main.c's declaration signature: the
	// checker must rerun over everything, but parses are still reused.
	edited := map[string]string{
		"lib.c": base["lib.c"],
		"main.c": base["main.c"] + `
int helper(void) { return 1; }`,
	}
	inc, _, err := AnalyzeIncremental(ctx, Options{}, snap,
		map[string]string{"main.c": edited["main.c"]}, nil)
	if err != nil {
		t.Fatalf("incremental analyze: %v", err)
	}
	full, _, err := AnalyzeSourceSnapshot(ctx, Options{}, edited)
	if err != nil {
		t.Fatalf("from-scratch analyze: %v", err)
	}
	if got, want := stableReport(t, inc.Report), stableReport(t, full.Report); got != want {
		t.Fatalf("fallback report differs from from-scratch:\n%s\nvs\n%s", got, want)
	}
	f := inc.Front
	if f.ParseReused != 1 {
		t.Fatalf("parse reuse = %d, want 1", f.ParseReused)
	}
	if f.CheckReused != 0 || f.CheckChecked != 2 {
		t.Fatalf("check reuse = %d/%d, want full fallback (0 reused / 2 checked)", f.CheckReused, f.CheckChecked)
	}
	if f.LowerReused != 0 {
		t.Fatalf("lower reused %d fragments across a declaration change", f.LowerReused)
	}
}

func TestIncrementalAddAndRemoveFile(t *testing.T) {
	ctx := context.Background()
	base := incrSources("conn_link(a, b);")
	_, snap, err := AnalyzeSourceSnapshot(ctx, Options{}, base)
	if err != nil {
		t.Fatalf("base analyze: %v", err)
	}

	extra := rcPrelude + `
int unused_helper(void) { return 2; }`
	inc, snap2, err := AnalyzeIncremental(ctx, Options{}, snap,
		map[string]string{"extra.c": extra}, nil)
	if err != nil {
		t.Fatalf("add-file analyze: %v", err)
	}
	want := map[string]string{"lib.c": base["lib.c"], "main.c": base["main.c"], "extra.c": extra}
	full, _, err := AnalyzeSourceSnapshot(ctx, Options{}, want)
	if err != nil {
		t.Fatalf("from-scratch analyze: %v", err)
	}
	if got, wantS := stableReport(t, inc.Report), stableReport(t, full.Report); got != wantS {
		t.Fatalf("add-file report differs from from-scratch")
	}

	// Removing it again returns to the base program.
	inc2, _, err := AnalyzeIncremental(ctx, Options{}, snap2, nil, []string{"extra.c"})
	if err != nil {
		t.Fatalf("remove-file analyze: %v", err)
	}
	fullBase, _, err := AnalyzeSourceSnapshot(ctx, Options{}, base)
	if err != nil {
		t.Fatalf("from-scratch base analyze: %v", err)
	}
	if got, wantS := stableReport(t, inc2.Report), stableReport(t, fullBase.Report); got != wantS {
		t.Fatalf("remove-file report differs from from-scratch")
	}
}

func TestIncrementalOptionMismatchRejected(t *testing.T) {
	ctx := context.Background()
	_, snap, err := AnalyzeSourceSnapshot(ctx, Options{}, incrSources("conn_link(a, b);"))
	if err != nil {
		t.Fatalf("base analyze: %v", err)
	}
	_, _, err = AnalyzeIncremental(ctx, Options{ContextCap: 1}, snap, nil, nil)
	if !errors.Is(err, &Error{Kind: ErrConfig}) {
		t.Fatalf("options mismatch returned %v, want ErrConfig", err)
	}
	_, _, err = AnalyzeIncremental(ctx, Options{}, snap, nil, []string{"lib.c", "main.c"})
	if !errors.Is(err, &Error{Kind: ErrConfig}) {
		t.Fatalf("empty source set returned %v, want ErrConfig", err)
	}
}

// globalSources is a two-file program around the global gconn: lib.c
// links its argument to whatever gconn holds. Edits to main.c's body
// may take gconn's address, which flips its address-taken bit while
// lib.c's fragment and the global table are reused from the base.
func globalSources(body string) map[string]string {
	return map[string]string{
		"lib.c": rcPrelude + `
struct conn_t { int fd; struct conn_t *next; };
struct conn_t *gconn;
struct conn_t *mkconn(region_t *r) {
    struct conn_t *c;
    c = ralloc(r);
    return c;
}
void hold_global(struct conn_t *x) {
    x->next = gconn;
}`,
		"main.c": rcPrelude + `
struct conn_t;
extern struct conn_t *gconn;
extern struct conn_t *mkconn(region_t *r);
extern void hold_global(struct conn_t *x);
int main(void) {
    region_t *r;
    region_t *subr;
    struct conn_t *a;
    struct conn_t *b;
    struct conn_t **pp;
    r = rnew(NULL);
    subr = rnew(r);
    a = mkconn(r);
    b = mkconn(subr);
    gconn = a;
    hold_global(a);
` + body + `
    return 0;
}`,
	}
}

// addrEdit stores b into gconn through its address: a's next field may
// then point into the shorter-lived subregion.
const addrEdit = "pp = &gconn; *pp = b;"

func TestIncrementalAddrTakenLeavesBaseUntouched(t *testing.T) {
	ctx := context.Background()
	base, snap, err := AnalyzeSourceSnapshot(ctx, Options{}, globalSources(""))
	if err != nil {
		t.Fatalf("base analyze: %v", err)
	}
	baseReport := stableReport(t, base.Report)
	g := base.Prog.Globals["gconn"]
	if g == nil || base.Prog.AddrTaken(g) {
		t.Fatalf("base program: gconn = %v, AddrTaken = %v; want a global whose address is not taken", g, g != nil && base.Prog.AddrTaken(g))
	}

	edited := globalSources(addrEdit)
	inc, _, err := AnalyzeIncremental(ctx, Options{}, snap,
		map[string]string{"main.c": edited["main.c"]}, nil)
	if err != nil {
		t.Fatalf("incremental analyze: %v", err)
	}
	if inc.Front.LowerReused != 1 {
		t.Fatalf("lower reused %d fragments, want lib.c's", inc.Front.LowerReused)
	}
	if inc.Prog.Globals["gconn"] != g || !inc.Prog.AddrTaken(g) {
		t.Fatalf("edited program: shares gconn = %v, AddrTaken = %v; want the base's variable, address taken",
			inc.Prog.Globals["gconn"] == g, inc.Prog.AddrTaken(g))
	}
	full, _, err := AnalyzeSourceSnapshot(ctx, Options{}, edited)
	if err != nil {
		t.Fatalf("from-scratch analyze: %v", err)
	}
	got := stableReport(t, inc.Report)
	if want := stableReport(t, full.Report); got != want {
		t.Fatalf("incremental report differs from from-scratch:\nincremental: %s\nfull:        %s", got, want)
	}
	if len(inc.Report.Warnings) <= len(base.Report.Warnings) {
		t.Fatalf("edit reported %d warnings, base %d: the store through &gconn went unseen",
			len(inc.Report.Warnings), len(base.Report.Warnings))
	}

	// The shared objects did not change under the base.
	if base.Prog.AddrTaken(g) {
		t.Fatal("the edit flipped AddrTaken(gconn) in the base program")
	}
	again, _, err := AnalyzeIncremental(ctx, Options{}, snap,
		map[string]string{"main.c": globalSources("b = a;")["main.c"]}, nil)
	if err != nil {
		t.Fatalf("re-analyze from base: %v", err)
	}
	if again.Prog.AddrTaken(g) {
		t.Fatal("a later edit from the base inherited AddrTaken(gconn)")
	}
	noop, _, err := AnalyzeIncremental(ctx, Options{}, snap, nil, nil)
	if err != nil {
		t.Fatalf("no-op re-analyze from base: %v", err)
	}
	if got := stableReport(t, noop.Report); got != baseReport {
		t.Fatalf("re-analysis from the base differs from the base report:\nagain: %s\nbase:  %s", got, baseReport)
	}
}

// TestConcurrentIncrementalFromOneSnapshot runs deltas against one base
// at once (run it under -race): they share the base's fragments and
// global table, so any write to those is a data race, and each result
// must equal its sequential counterpart. Several copies of each delta
// run, so the racing accesses meet in more than one interleaving.
func TestConcurrentIncrementalFromOneSnapshot(t *testing.T) {
	ctx := context.Background()
	_, snap, err := AnalyzeSourceSnapshot(ctx, Options{}, globalSources(""))
	if err != nil {
		t.Fatalf("base analyze: %v", err)
	}
	bodies := []string{addrEdit, "b = a;"}
	want := make([]string, len(bodies))
	for i, body := range bodies {
		full, _, err := AnalyzeSourceSnapshot(ctx, Options{}, globalSources(body))
		if err != nil {
			t.Fatalf("from-scratch analyze %d: %v", i, err)
		}
		want[i] = stableReport(t, full.Report)
	}
	const copies = 8
	got := make([]*Analysis, copies*len(bodies))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := bodies[i%len(bodies)]
			got[i], _, errs[i] = AnalyzeIncremental(ctx, Options{}, snap,
				map[string]string{"main.c": globalSources(body)["main.c"]}, nil)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("delta %d: %v", i, errs[i])
		}
		if s := stableReport(t, got[i].Report); s != want[i%len(bodies)] {
			t.Fatalf("concurrent delta %d differs from from-scratch:\ngot:  %s\nwant: %s", i, s, want[i%len(bodies)])
		}
	}
}

// liveSources is a two-file program whose lib.c defines two linkers;
// main.c declares both, so body edits in main.c keep its declaration
// signature while changing which lib.c functions main can reach.
func liveSources(body string) map[string]string {
	return map[string]string{
		"lib.c": rcPrelude + `
struct conn_t { int fd; struct conn_t *next; };
struct conn_t *mkconn(region_t *r) {
    struct conn_t *c;
    c = ralloc(r);
    return c;
}
void conn_link(struct conn_t *x, struct conn_t *y) {
    x->next = y;
}
void conn_back(struct conn_t *x, struct conn_t *y) {
    y->next = x;
}`,
		"main.c": rcPrelude + `
struct conn_t;
extern struct conn_t *mkconn(region_t *r);
extern void conn_link(struct conn_t *x, struct conn_t *y);
extern void conn_back(struct conn_t *x, struct conn_t *y);
int main(void) {
    region_t *r;
    region_t *subr;
    struct conn_t *a;
    struct conn_t *b;
    r = rnew(NULL);
    subr = rnew(r);
    a = mkconn(r);
    b = mkconn(subr);
` + body + `
    return 0;
}`,
	}
}

// TestIncrementalLiveSetChanges edits main.c so that the set of lib.c
// functions main reaches changes while lib.c itself does not: once by
// adding a call into conn_back, dead until then, and once by removing
// the only call to conn_link. lib.c's cached fragment holds the old
// live set, so it must be lowered again; each chained report must equal
// a from-scratch analysis, on both backends.
func TestIncrementalLiveSetChanges(t *testing.T) {
	ctx := context.Background()
	steps := []struct {
		name, body string
		live       []string // lib.c's lowered functions after the edit
	}{
		{"base", "conn_link(b, a);", []string{"mkconn", "conn_link"}},
		{"call a dead function", "conn_link(b, a); conn_back(b, a);", []string{"mkconn", "conn_link", "conn_back"}},
		{"remove the only call", "conn_back(b, a);", []string{"mkconn", "conn_back"}},
	}
	for _, be := range []Backend{ExplicitBackend, BDDBackend} {
		opts := Options{Solver: SolverOptions{Backend: be}}
		a, snap, err := AnalyzeSourceSnapshot(ctx, opts, liveSources(steps[0].body))
		if err != nil {
			t.Fatalf("%v base analyze: %v", be, err)
		}
		for i, st := range steps {
			if i > 0 {
				a, snap, err = AnalyzeIncremental(ctx, opts, snap,
					map[string]string{"main.c": liveSources(st.body)["main.c"]}, nil)
				if err != nil {
					t.Fatalf("%v %s: %v", be, st.name, err)
				}
				if a.Front.CheckReused != 1 || a.Front.LowerReused != 0 || a.Front.LowerLowered != 2 {
					t.Fatalf("%v %s: check reused %d, lower reused %d / lowered %d; want lib.c checked from the base but lowered again",
						be, st.name, a.Front.CheckReused, a.Front.LowerReused, a.Front.LowerLowered)
				}
			}
			if got := snap.liveIn["lib.c"]; !slices.Equal(got, st.live) {
				t.Fatalf("%v %s: lib.c live list %v, want %v", be, st.name, got, st.live)
			}
			full, err := AnalyzeSource(opts, liveSources(st.body))
			if err != nil {
				t.Fatalf("%v %s from scratch: %v", be, st.name, err)
			}
			if got, want := stableReport(t, a.Report), stableReport(t, full.Report); got != want {
				t.Fatalf("%v %s: incremental report differs from from-scratch:\nincremental: %s\nfull:        %s", be, st.name, got, want)
			}
		}
		// conn_back stores the subregion's object into the parent's:
		// the edit that reached it must have surfaced that warning.
		if len(a.Report.Warnings) == 0 {
			t.Fatalf("%v: no warning once conn_back is reachable", be)
		}
	}
}
