package ir_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cminor"
	"repro/internal/core"
	"repro/internal/ir"
)

// checkProgram asserts the numbering and operand invariants of a linked
// program: InstrID is a bijection from the functions' instructions onto
// [0, len(Instrs)) that Instrs inverts, every string operand indexes
// the literal at its own position, and every variable operand is a
// variable of the program visible from the instruction's function.
func checkProgram(t testing.TB, p *ir.Program) {
	t.Helper()
	vars := make(map[*ir.Var]bool, len(p.Vars))
	for _, v := range p.Vars {
		if vars[v] {
			t.Fatalf("var %s listed twice in Vars", v)
		}
		vars[v] = true
	}
	checkVar := func(in *ir.Instr, o ir.Operand) {
		if o.Kind != ir.VarOpd {
			return
		}
		v := o.Var
		switch {
		case !vars[v]:
			t.Fatalf("%s: var %s missing from Vars", in, v)
		case v.Global && p.Globals[v.Name] != v:
			t.Fatalf("%s: global %s is not the program's", in, v)
		case !v.Global && v.Func != in.Func:
			t.Fatalf("%s in %s: local %s belongs to another function", in, in.Func.Name, v)
		}
	}
	seen := make([]bool, len(p.Instrs))
	total := 0
	for _, name := range p.FuncNames() {
		f := p.Funcs[name]
		for _, in := range f.Instrs {
			total++
			if in.Func != f {
				t.Fatalf("%s: instruction of %s claims function %s", in, name, in.Func.Name)
			}
			id := p.InstrID(in)
			if id < 0 || id >= len(p.Instrs) {
				t.Fatalf("%s in %s: InstrID %d outside [0, %d)", in, name, id, len(p.Instrs))
			}
			if seen[id] {
				t.Fatalf("%s in %s: InstrID %d assigned twice", in, name, id)
			}
			seen[id] = true
			if p.Instrs[id] != in {
				t.Fatalf("%s in %s: Instrs[InstrID] is %s", in, name, p.Instrs[id])
			}
			for _, o := range append([]ir.Operand{in.Dst, in.Src, in.Base, in.Callee}, in.Args...) {
				checkVar(in, o)
				if o.Kind != ir.StringOpd {
					continue
				}
				s := p.StringID(in, o)
				if s < 0 || s >= len(p.Strings) {
					t.Fatalf("%s: StringID %d outside [0, %d)", in, s, len(p.Strings))
				}
				if p.Strings[s].Pos != in.Pos {
					t.Fatalf("%s at %s: StringID %d is the literal at %s", in, in.Pos, s, p.Strings[s].Pos)
				}
			}
		}
	}
	if total != len(p.Instrs) {
		t.Fatalf("functions hold %d instructions, Instrs %d", total, len(p.Instrs))
	}
}

// checkFiles parses and checks sources (in path order); ok is false
// when any of them is not a clean program.
func checkFiles(paths []string, sources map[string]string) (*cminor.Info, []*cminor.File, bool) {
	files := make([]*cminor.File, len(paths))
	for i, path := range paths {
		f, errs := cminor.Parse(path, sources[path])
		if len(errs) != 0 {
			return nil, nil, false
		}
		files[i] = f
	}
	info := cminor.Check(files...)
	return info, files, len(info.Errors) == 0
}

var multiFile = map[string]string{
	"a.c": `
extern char *strdup(char *s);
extern int fb(void);
extern int fc(void);
int ga = 7;
char *sa = "alpha-init";
int *pa = &ga;
char *fa(void) { return strdup("alpha-body"); }
int main(void) { fa(); fb(); return fc(); }`,
	"b.c": `
extern int ga;
int fb(void) { int *q; q = &ga; return *q; }`,
	"c.c": `
extern char *strdup(char *s);
extern int ga;
char *sc = "gamma-init";
int fc(void) { char *x; x = strdup("gamma-body-1"); x = "gamma-body-2"; return ga; }`,
}

func TestProgramIDsAreDenseAcrossFiles(t *testing.T) {
	paths := []string{"a.c", "b.c", "c.c"}
	info, files, ok := checkFiles(paths, multiFile)
	if !ok {
		t.Fatal("fixture does not parse and check cleanly")
	}
	globals := ir.NewGlobalTable(info)
	frags := make([]*ir.Fragment, len(files))
	for i, f := range files {
		frags[i] = ir.LowerFile(info, globals, f, nil)
	}
	p := ir.Link(info, globals, frags)
	checkProgram(t, p)
	if len(p.Strings) != 5 {
		t.Fatalf("%d string sites, want 5", len(p.Strings))
	}
	// Initializer literals come first in file order, then body literals.
	want := []string{"alpha-init", "gamma-init", "alpha-body", "gamma-body-1", "gamma-body-2"}
	for i, w := range want {
		if p.Strings[i].Value != w {
			t.Errorf("Strings[%d] = %q, want %q", i, p.Strings[i].Value, w)
		}
	}
	// The initializer function comes first and owns IDs 0..n-1.
	initFn := p.Funcs[ir.InitFuncName]
	for i, in := range initFn.Instrs {
		if id := p.InstrID(in); id != i {
			t.Errorf("initializer instruction %d has ID %d", i, id)
		}
	}
	// Dump prints program-wide instruction IDs and string indices.
	wantDump := `func fa():
     7  t3 = ASSIGN str#2
     8  t4 = CALL &strdup(t3)
     9  __ret = ASSIGN t4
    10  RET __ret
`
	if got := p.Funcs["fa"].Dump(p); got != wantDump {
		t.Errorf("fa dump:\n%s\nwant:\n%s", got, wantDump)
	}
	if !p.AddrTaken(p.Globals["ga"]) || p.AddrTaken(p.Globals["sa"]) {
		t.Errorf("AddrTaken(ga, sa) = %v, %v; want true, false",
			p.AddrTaken(p.Globals["ga"]), p.AddrTaken(p.Globals["sa"]))
	}

	// Relinking shares the fragments in place: without b.c the same
	// c.c instructions get other IDs, and both programs stay consistent.
	q := ir.Link(info, globals, []*ir.Fragment{frags[0], frags[2]})
	checkProgram(t, q)
	fc := p.Funcs["fc"]
	if q.Funcs["fc"] != fc {
		t.Fatal("relinked program does not share fc")
	}
	if p.InstrID(fc.Instrs[0]) == q.InstrID(fc.Instrs[0]) {
		t.Errorf("fc's first instruction kept ID %d without b.c's instructions before it", p.InstrID(fc.Instrs[0]))
	}
	// b.c took ga's address in p; q has no such instruction left, and
	// the initializer &ga still counts.
	if !q.AddrTaken(q.Globals["ga"]) {
		t.Error("AddrTaken(ga) lost the initializer's &ga")
	}
	r := ir.Link(info, globals, []*ir.Fragment{frags[1]})
	checkProgram(t, r)
	if !r.AddrTaken(r.Globals["ga"]) || !p.AddrTaken(p.Globals["ga"]) {
		t.Error("AddrTaken(ga) must hold in every program with a &ga")
	}
	s := ir.Link(info, globals, []*ir.Fragment{frags[2]})
	if s.AddrTaken(s.Globals["ga"]) {
		t.Error("AddrTaken(ga) leaked into a program with no &ga")
	}
}

// FuzzLower feeds raw bytes, split into files at form feeds, through
// parse, check, per-file lowering, and link, and asserts the program
// invariants of checkProgram on every clean input, for the whole
// program and for the one pruned to what main can reach (checkPruned);
// the whole analysis must then return without panicking. Seeds from
// the examples live in testdata/fuzz/FuzzLower and run as regression
// cases under go test.
//
// Run bounded in CI: go test ./internal/ir -run '^$' -fuzz FuzzLower -fuzztime 10s
func FuzzLower(f *testing.F) {
	var sb strings.Builder
	for i, path := range []string{"a.c", "b.c", "c.c"} {
		if i > 0 {
			sb.WriteByte('\f')
		}
		sb.WriteString(multiFile[path])
	}
	f.Add([]byte(sb.String()))
	f.Add([]byte("int main(void) { return 0; }"))
	f.Add([]byte(liveFixture))
	f.Fuzz(func(t *testing.T, src []byte) {
		parts := strings.Split(string(src), "\f")
		if len(parts) > 8 {
			return
		}
		sources := make(map[string]string, len(parts))
		paths := make([]string, len(parts))
		for i, part := range parts {
			paths[i] = fmt.Sprintf("f%d.c", i)
			sources[paths[i]] = part
		}
		info, files, ok := checkFiles(paths, sources)
		if !ok {
			return
		}
		globals := ir.NewGlobalTable(info)
		frags := make([]*ir.Fragment, len(files))
		for i, file := range files {
			frags[i] = ir.LowerFile(info, globals, file, nil)
		}
		checkProgram(t, ir.Link(info, globals, frags))
		checkPruned(t, info, files, []string{"main"})
		core.AnalyzeSource(core.Options{}, sources)
	})
}
