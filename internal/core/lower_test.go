package core

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/ir"
	"repro/internal/pipeline"
)

// analyzeWholeProgram runs the pipeline with a lower phase that lowers
// every defined function (ir.Lower), reachable or not: the reference
// the pruned lower phase must agree with.
func analyzeWholeProgram(t *testing.T, opts Options, sources map[string]string) (*Analysis, error) {
	t.Helper()
	opts, err := opts.prepare()
	if err != nil {
		return nil, err
	}
	a := newAnalysis(opts)
	a.Sources = sources
	whole := pipeline.New(PhaseLower, func(_ context.Context, a *Analysis) error {
		entries, err := a.resolveEntries()
		if err != nil {
			return err
		}
		a.Prog = ir.Lower(a.Info, a.Files...)
		for _, e := range entries {
			if _, ok := a.Prog.Funcs[e]; !ok {
				return Errf(ErrResolve, "", "entry function %q not defined", e)
			}
		}
		a.entries = entries
		return nil
	})
	phases := append(frontEndPhases(), whole)
	return runPhases(context.Background(), a, append(phases, analysisPhases()[1:]...))
}

// lowered lists the functions a's lower phase kept, without the
// synthetic initializer.
func lowered(a *Analysis) []string {
	var out []string
	for _, name := range a.Prog.FuncNames() {
		if name != ir.InitFuncName {
			out = append(out, name)
		}
	}
	return out
}

// TestLowerKeepsIndirectlyReachedFunctions pins the three ways a
// function can be reached without a direct call from reachable code:
// each must be lowered and reachable, while a function nothing live
// names is not lowered at all.
func TestLowerKeepsIndirectlyReachedFunctions(t *testing.T) {
	cases := []struct {
		name, via, src string
	}{
		{"global initializer", "on_boot", `
void on_boot(void) { }
void (*boot)(void) = on_boot;
int main(void) { boot(); return 0; }`},
		{"pthread_create argument", "worker", `
extern int pthread_create(void *t, void *attr, void *(*fn)(void *), void *arg);
void *worker(void *arg) { return arg; }
int main(void) { pthread_create(0, 0, worker, 0); return 0; }`},
		{"struct field", "on_event", `
struct ops { int tag; void (*cb)(void); };
void on_event(void) { }
void install(struct ops *o) { o->cb = on_event; }
int main(void) { struct ops o; install(&o); o.cb(); return 0; }`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := runOpts(t, Options{}, c.src+`
void never_named(void) { }`)
			if a.Prog.Funcs[c.via] == nil || !a.Graph.Reachable[c.via] {
				t.Fatalf("%s: lowered %v, reachable %v; want %s in both", c.name, lowered(a), a.Graph.ReachableFuncs(), c.via)
			}
			if a.Prog.Funcs["never_named"] != nil {
				t.Fatalf("%s: lowered never_named, which no live code names", c.name)
			}
		})
	}
}

// TestLowerPrototypeEntryIsResolveError pins that an entry with no body
// still fails after linking, with the typed kind and message the
// whole-program lowering gave.
func TestLowerPrototypeEntryIsResolveError(t *testing.T) {
	src := map[string]string{"p.c": `
extern int main(void);
int helper(void) { return 1; }`}
	for _, opts := range []Options{{}, {Entries: []string{"helper", "main"}}} {
		_, err := AnalyzeSource(opts, src)
		var aerr *Error
		if !errors.As(err, &aerr) || aerr.Kind != ErrResolve {
			t.Fatalf("entries %v: err = %v, want a resolve Error", opts.Entries, err)
		}
		if want := `entry function "main" not defined`; aerr.Error() != want {
			t.Fatalf("entries %v: message %q, want %q", opts.Entries, aerr.Error(), want)
		}
	}
}

// TestOpenProgramLowersEveryDefinedFunction pins the open-program mode
// (non-nil, empty Entries): every defined function is a root, so every
// one is lowered and reachable.
func TestOpenProgramLowersEveryDefinedFunction(t *testing.T) {
	a, err := AnalyzeSource(Options{Entries: []string{}}, map[string]string{
		"a.c": `
extern int ext(int x);
int leaf(int x) { return ext(x); }
int mid(void) { return leaf(1); }`,
		"b.c": `
int alone(void) { return 2; }`,
	})
	if err != nil {
		t.Fatalf("open-program analyze: %v", err)
	}
	want := []string{"alone", "leaf", "mid"}
	if got := lowered(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("lowered %v, want %v", got, want)
	}
	if !reflect.DeepEqual(a.entries, want) {
		t.Fatalf("roots %v, want %v", a.entries, want)
	}
	for _, fn := range want {
		if !a.Graph.Reachable[fn] {
			t.Fatalf("%s not reachable in open-program mode", fn)
		}
	}
	_, err = AnalyzeSource(Options{Entries: []string{}}, map[string]string{"e.c": "extern int ext(int x);"})
	var aerr *Error
	if !errors.As(err, &aerr) || aerr.Kind != ErrResolve {
		t.Fatalf("open program without functions: err = %v, want a resolve Error", err)
	}
}

// TestDeadCodeAddsNoCallEdges pins the one semantic change of lowering
// only live functions: a function pointer stored into memory by code
// main never reaches used to feed the call graph's object-insensitive
// heap approximation, so a load of the same field offset in live code
// resolved to it. Dead code no longer contributes: the call graph is
// built from the lowered (live) functions only.
func TestDeadCodeAddsNoCallEdges(t *testing.T) {
	src := `
struct ops { int tag; void (*cb)(void); };
void target(void) { }
void dead_install(struct ops *o) { o->cb = target; }
int main(void) {
    struct ops o;
    void (*f)(void);
    f = o.cb;
    f();
    return 0;
}`
	a := runOpts(t, Options{}, src)
	if a.Prog.Funcs["dead_install"] != nil || a.Prog.Funcs["target"] != nil {
		t.Fatalf("lowered %v; dead_install and target are dead", lowered(a))
	}
	if a.Graph.Reachable["target"] {
		t.Fatal("target reachable through a store in dead code")
	}
	whole, err := analyzeWholeProgram(t, Options{}, map[string]string{"test.c": src})
	if err != nil {
		t.Fatalf("whole-program analyze: %v", err)
	}
	if !whole.Graph.Reachable["target"] {
		t.Fatal("whole-program lowering no longer shows the dead-code edge this test documents")
	}
}

// exampleSources collects the C programs under examples/: figure1.c and
// every string constant of the example programs' Go sources.
func exampleSources(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	root := filepath.Join("..", "..", "examples")
	data, err := os.ReadFile(filepath.Join(root, "figure1.c"))
	if err != nil {
		t.Fatal(err)
	}
	out["figure1.c"] = string(data)
	mains, err := filepath.Glob(filepath.Join(root, "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	for _, path := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, v := range vs.Values {
					lit, ok := v.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					s, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					out[filepath.Base(filepath.Dir(path))+"/"+vs.Names[i].Name+".c"] = s
				}
			}
		}
	}
	return out
}

// TestPrunedMatchesWholeProgramOnExamples runs every example program
// through the pruned pipeline and through whole-program lowering, as a
// closed program from main and as an open program, on both backends:
// the reports (or the typed errors) must be identical, and the pruned
// call graph must reach exactly what the whole program's reaches.
// Every example must analyze in at least one of the modes.
func TestPrunedMatchesWholeProgramOnExamples(t *testing.T) {
	sources := exampleSources(t)
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	analyzed := make(map[string]bool)
	for _, name := range names {
		for _, opts := range []Options{
			{},
			{Entries: []string{}},
			{Solver: SolverOptions{Backend: BDDBackend}},
		} {
			src := map[string]string{"x.c": sources[name]}
			pruned, perr := AnalyzeSource(opts, src)
			whole, werr := analyzeWholeProgram(t, opts, src)
			if (perr == nil) != (werr == nil) {
				t.Fatalf("%s %+v: pruned err %v, whole-program err %v", name, opts.Entries, perr, werr)
			}
			if perr != nil {
				var pe, we *Error
				if !errors.As(perr, &pe) || !errors.As(werr, &we) || pe.Kind != we.Kind || pe.Error() != we.Error() {
					t.Fatalf("%s: pruned err %v, whole-program err %v", name, perr, werr)
				}
				continue
			}
			if got, want := canonicalReportText(t, pruned.Report), canonicalReportText(t, whole.Report); got != want {
				t.Fatalf("%s %+v: pruned report differs from whole-program:\n%s\nvs\n%s", name, opts.Entries, got, want)
			}
			if got, want := pruned.Graph.ReachableFuncs(), whole.Graph.ReachableFuncs(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: pruned reaches %v, whole program %v", name, got, want)
			}
			analyzed[name] = true
		}
	}
	for _, name := range names {
		if !analyzed[name] {
			t.Errorf("%s analyzed in no mode: the comparison covered nothing", name)
		}
	}
}
