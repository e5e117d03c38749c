package ir_test

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/cminor"
	"repro/internal/ir"
)

// checkPruned lowers files against ir.LiveFuncs(files, entries) and
// asserts the pruning invariants: the pruned program satisfies
// checkProgram; it holds exactly the live functions (plus the
// initializer function); every function name an instruction mentions
// is lowered or extern; and its call graph reaches only lowered
// functions, never more than the whole program's does, and exactly as
// much when no function value moves through variables or memory (the
// whole program then passes callgraph.BuildDirect, so dead code cannot
// add edges).
func checkPruned(t testing.TB, info *cminor.Info, files []*cminor.File, entries []string) {
	t.Helper()
	live := ir.LiveFuncs(files, entries)
	globals := ir.NewGlobalTable(info)
	frags := make([]*ir.Fragment, len(files))
	for i, f := range files {
		frags[i] = ir.LowerFile(info, globals, f, live)
	}
	p := ir.Link(info, globals, frags)
	checkProgram(t, p)
	for name := range p.Funcs {
		if name != ir.InitFuncName && !live[name] {
			t.Fatalf("lowered %s, which is not live", name)
		}
	}
	for name := range live {
		if p.Funcs[name] == nil {
			t.Fatalf("live function %s was not lowered", name)
		}
	}
	for _, in := range p.Instrs {
		for _, o := range append([]ir.Operand{in.Dst, in.Src, in.Base, in.Callee}, in.Args...) {
			if o.Kind != ir.FuncOpd {
				continue
			}
			if p.Funcs[o.Fn] == nil && p.Externs[o.Fn] == nil {
				t.Fatalf("%s in %s: function %s is neither lowered nor extern", in, in.Func.Name, o.Fn)
			}
		}
	}

	pruned := callgraph.BuildEntries(p, entries, nil)
	whole := callgraph.BuildEntries(ir.Lower(info, files...), entries, nil)
	for fn := range pruned.Reachable {
		if p.Funcs[fn] == nil {
			t.Fatalf("call graph reaches %s, which was not lowered", fn)
		}
		if !whole.Reachable[fn] {
			t.Fatalf("pruned call graph reaches %s; the whole program's does not", fn)
		}
	}
	if _, direct := callgraph.BuildDirect(ir.Lower(info, files...), entries, nil); direct {
		if got, want := pruned.ReachableFuncs(), whole.ReachableFuncs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("direct-call program: pruned reaches %v, whole program %v", got, want)
		}
	}
}

const liveFixture = `
struct ops { int tag; void (*cb)(int); };
extern int pthread_create(void *t, void *attr, void *(*fn)(void *), void *arg);
void on_init(int x) { }
void (*boot)(int) = on_init;
void handler(int x) { }
void *worker(void *arg) { return arg; }
int helper(int x) { return x; }
int shadow(int x) { return x; }
void dead2(void) { }
void dead1(void) { dead2(); }
void setup(struct ops *o) { o->cb = handler; }
int main(void) {
    struct ops o;
    int shadow;
    setup(&o);
    pthread_create(0, 0, worker, 0);
    shadow = helper(1);
    return shadow;
}`

func TestLiveFuncsClosure(t *testing.T) {
	info, files, ok := checkFiles([]string{"live.c"}, map[string]string{"live.c": liveFixture})
	if !ok {
		t.Fatal("fixture does not parse and check cleanly")
	}
	live := ir.LiveFuncs(files, []string{"main"})
	var got []string
	for name := range live {
		got = append(got, name)
	}
	sort.Strings(got)
	// on_init through the global initializer, handler through a struct
	// field store, worker through a thread-creation argument, helper by
	// a direct call, shadow because a local spells its name; dead1 and
	// dead2 are never named by live code.
	want := []string{"handler", "helper", "main", "on_init", "setup", "shadow", "worker"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LiveFuncs = %v, want %v", got, want)
	}
	if in := ir.LiveIn(files[0], live); !reflect.DeepEqual(in, []string{"on_init", "handler", "worker", "helper", "shadow", "setup", "main"}) {
		t.Fatalf("LiveIn = %v, want the live functions in declaration order", in)
	}
	checkPruned(t, info, files, []string{"main"})
}

func TestLiveFuncsRoots(t *testing.T) {
	src := `
extern int proto(int x);
int a(void) { return proto(1); }
int b(void) { return a(); }`
	_, files, ok := checkFiles([]string{"r.c"}, map[string]string{"r.c": src})
	if !ok {
		t.Fatal("fixture does not parse and check cleanly")
	}
	// A root that is only declared is not live: the analysis reports
	// it as undefined after linking.
	if live := ir.LiveFuncs(files, []string{"proto"}); len(live) != 0 {
		t.Errorf("LiveFuncs(proto) = %v, want nothing", live)
	}
	if live := ir.LiveFuncs(files, []string{"b"}); !live["a"] || !live["b"] || len(live) != 2 {
		t.Errorf("LiveFuncs(b) = %v, want a and b", live)
	}
	if live := ir.LiveFuncs(files, nil); len(live) != 0 {
		t.Errorf("LiveFuncs with no roots = %v, want nothing", live)
	}
}

func TestPrunedProgramAcrossFiles(t *testing.T) {
	paths := []string{"a.c", "b.c", "c.c"}
	info, files, ok := checkFiles(paths, multiFile)
	if !ok {
		t.Fatal("fixture does not parse and check cleanly")
	}
	for _, entries := range [][]string{{"main"}, {"fb"}, {"fa", "fc"}} {
		checkPruned(t, info, files, entries)
	}
}
