package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
)

// deltaBase is the seed base program: lib.c defines two linkers, and
// main.c, which declares both, calls only one, so a body edit to main.c
// can move the set of lib.c functions that are lowered.
var deltaBase = []string{`
typedef struct region_t region_t;
extern region_t *rnew(region_t *parent);
extern void *ralloc(region_t *r);
struct conn_t { int fd; struct conn_t *next; };
struct conn_t *mkconn(region_t *r) { struct conn_t *c; c = ralloc(r); return c; }
void conn_link(struct conn_t *x, struct conn_t *y) { x->next = y; }
void conn_back(struct conn_t *x, struct conn_t *y) { y->next = x; }`, `
typedef struct region_t region_t;
extern region_t *rnew(region_t *parent);
struct conn_t;
extern struct conn_t *mkconn(region_t *r);
extern void conn_link(struct conn_t *x, struct conn_t *y);
extern void conn_back(struct conn_t *x, struct conn_t *y);
int main(void) {
    region_t *r; region_t *subr; struct conn_t *a; struct conn_t *b;
    r = rnew(NULL); subr = rnew(r);
    a = mkconn(r); b = mkconn(subr);
    conn_link(b, a);
    return 0;
}`}

// deltaMain returns main.c of deltaBase with its call replaced.
func deltaMain(call string) string {
	return strings.Replace(deltaBase[1], "conn_link(b, a);", call, 1)
}

// FuzzDelta checks AnalyzeIncremental against AnalyzeSource. base is a
// program split into files at form feeds (f0.c, f1.c, ...); repl
// replaces file number which%files. When the base analyzes cleanly, the
// delta on its snapshot must give the same canonical report bytes as a
// from-scratch analysis of the edited sources, or fail with the same
// typed error kind; a successful delta is then reverted on its own
// snapshot and must reproduce the base report. which >= 128 selects the
// BDD backend. Seeds live in testdata/fuzz/FuzzDelta and run as
// regression cases under go test.
//
// Run bounded in CI (the minimizer cap keeps the default 60 s
// minimization of the first new input from eating the budget):
//
//	go test ./internal/core -run '^$' -fuzz FuzzDelta -fuzztime 10s -fuzzminimizetime 200x
func FuzzDelta(f *testing.F) {
	base := []byte(strings.Join(deltaBase, "\f"))
	f.Add(base, uint8(1), []byte(deltaMain("conn_link(b, a); conn_back(b, a);")))
	f.Add(base, uint8(129), []byte(deltaMain("")))
	f.Add(base, uint8(0), []byte(deltaBase[0]+"\nint extra(void) { return 1; }"))
	f.Add(base, uint8(1), []byte(deltaMain("conn_link(b, a")))
	f.Fuzz(func(t *testing.T, base []byte, which uint8, repl []byte) {
		parts := strings.Split(string(base), "\f")
		if len(parts) > 8 || len(base)+len(repl) > 1<<13 {
			return
		}
		sources := make(map[string]string, len(parts))
		for i, part := range parts {
			sources[fmt.Sprintf("f%d.c", i)] = part
		}
		opts := core.Options{}
		if which >= 128 {
			opts.Solver.Backend = core.BDDBackend
		}
		ctx := context.Background()
		baseRun, snap, err := core.AnalyzeSourceSnapshot(ctx, opts, sources)
		if err != nil {
			return
		}
		path := fmt.Sprintf("f%d.c", int(which)%len(parts))
		changed := map[string]string{path: string(repl)}
		inc, incSnap, ierr := core.AnalyzeIncremental(ctx, opts, snap, changed, nil)
		full, ferr := core.AnalyzeSource(opts, snap.Apply(changed, nil))
		if ierr != nil || ferr != nil {
			if kind(ierr) != kind(ferr) {
				t.Fatalf("delta on %s: incremental err %v, from-scratch err %v", path, ierr, ferr)
			}
			return
		}
		if got, want := oracle.CanonicalReport(inc.Report), oracle.CanonicalReport(full.Report); !bytes.Equal(got, want) {
			t.Fatalf("delta on %s: incremental report differs from from-scratch:\n%s\nvs\n%s", path, got, want)
		}
		back, _, err := core.AnalyzeIncremental(ctx, opts, incSnap, map[string]string{path: sources[path]}, nil)
		if err != nil {
			t.Fatalf("reverting %s: %v", path, err)
		}
		if got, want := oracle.CanonicalReport(back.Report), oracle.CanonicalReport(baseRun.Report); !bytes.Equal(got, want) {
			t.Fatalf("reverting %s: report differs from the base's:\n%s\nvs\n%s", path, got, want)
		}
	})
}

// kind returns err's typed kind, or -1 for a nil error.
func kind(err error) core.ErrorKind {
	if err == nil {
		return -1
	}
	var e *core.Error
	if !errors.As(err, &e) {
		return core.ErrInternal
	}
	return e.Kind
}
