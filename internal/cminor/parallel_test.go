package cminor

import (
	"fmt"
	"reflect"
	"testing"
)

// checkParallelFiles builds a multi-file program exercising
// cross-file references: structs and typedefs from one file used by
// bodies in others, forward calls across files, globals with
// initializers, enums, sizeof, and field access.
func checkParallelFiles(t *testing.T) []*File {
	t.Helper()
	srcs := map[string]string{
		"decls.c": `
typedef struct pool pool_t;
struct pool { struct pool *parent; int size; };
enum mode { M_READ, M_WRITE = 4, M_RW };
extern void *malloc(unsigned long n);
int limit = 128;
`,
		"mid.c": `
typedef struct pool pool_t;
struct pool;
extern void *malloc(unsigned long n);
extern int limit;
pool_t *mk(pool_t *parent);
int use(pool_t *p) { return p->size + M_RW; }
`,
		"main.c": `
typedef struct pool pool_t;
struct pool;
extern void *malloc(unsigned long n);
int use(pool_t *p);
pool_t *mk(pool_t *parent) {
    pool_t *p;
    p = malloc(sizeof(struct pool));
    p->parent = parent;
    return p;
}
int main(void) {
    pool_t *a;
    pool_t *b;
    a = mk(0);
    b = mk(a);
    return use(b);
}
`,
	}
	var files []*File
	for _, name := range []string{"decls.c", "mid.c", "main.c"} {
		f, errs := Parse(name, srcs[name])
		if len(errs) != 0 {
			t.Fatalf("parse %s: %v", name, errs)
		}
		files = append(files, f)
	}
	return files
}

// infosEqual compares two checker outputs piecewise, reporting the
// first divergence.
func infosEqual(t *testing.T, want, got *Info) {
	t.Helper()
	if len(want.Errors) != len(got.Errors) {
		t.Fatalf("errors: want %d, got %d (%v vs %v)", len(want.Errors), len(got.Errors), want.Errors, got.Errors)
	}
	for i := range want.Errors {
		if want.Errors[i].Error() != got.Errors[i].Error() {
			t.Errorf("error %d: want %q, got %q", i, want.Errors[i], got.Errors[i])
		}
	}
	pairs := []struct {
		name      string
		want, got interface{}
	}{
		{"Types", want.Types, got.Types},
		{"Uses", want.Uses, got.Uses},
		{"Fields", want.Fields, got.Fields},
		{"Sizeofs", want.Sizeofs, got.Sizeofs},
		{"FuncInfo", want.FuncInfo, got.FuncInfo},
		{"Structs", want.Structs, got.Structs},
		{"Typedefs", want.Typedefs, got.Typedefs},
		{"Funcs", want.Funcs, got.Funcs},
		{"Globals", want.Globals, got.Globals},
		{"Enums", want.Enums, got.Enums},
	}
	for _, p := range pairs {
		if !reflect.DeepEqual(p.want, p.got) {
			t.Errorf("%s differ:\nwant %v\ngot  %v", p.name, p.want, p.got)
		}
	}
}

func TestCheckParallelMatchesCheck(t *testing.T) {
	files := checkParallelFiles(t)
	want := Check(files...)
	if len(want.Errors) != 0 {
		t.Fatalf("unexpected errors: %v", want.Errors)
	}
	for _, workers := range []int{2, 4, 8} {
		infosEqual(t, want, CheckParallel(workers, files...))
	}
}

// TestCheckParallelFallbacks pins the cases where sharded checking
// must fall back to the sequential checker and still produce its exact
// output: implicit function declarations, undeclared identifiers,
// body-level type definitions, and plain type errors.
func TestCheckParallelFallbacks(t *testing.T) {
	cases := map[string][2]string{
		"implicit_func": {
			`int helper(void) { return probe(); }`,
			`int main(void) { return probe(); }`,
		},
		"undeclared_ident": {
			`int helper(void) { return mystery + 1; }`,
			`int main(void) { return mystery; }`,
		},
		"body_type_def": {
			`int helper(void) { return sizeof(struct local { int x; int y; }); }`,
			`int main(void) { return 0; }`,
		},
		"type_error": {
			`int helper(int x) { return x->bad; }`,
			`int main(void) { return helper(1, 2, 3); }`,
		},
		"body_struct_ref": {
			`int helper(void *p) { return (int)(struct never_declared *)p; }`,
			`int main(void) { return 0; }`,
		},
	}
	for name, srcs := range cases {
		t.Run(name, func(t *testing.T) {
			var files []*File
			for i, src := range srcs {
				f, errs := Parse(fmt.Sprintf("f%d.c", i), src)
				if len(errs) != 0 {
					t.Fatalf("parse: %v", errs)
				}
				files = append(files, f)
			}
			infosEqual(t, Check(files...), CheckParallel(4, files...))
		})
	}
}

func TestCheckParallelSingleFile(t *testing.T) {
	f, errs := Parse("only.c", `int main(void) { return 0; }`)
	if len(errs) != 0 {
		t.Fatalf("parse: %v", errs)
	}
	infosEqual(t, Check(f), CheckParallel(4, f))
}

// TestCheckParallelShardPanicReachesCaller: a panic inside a body
// shard must be re-raised on the calling goroutine, where the caller's
// recover can see it, instead of killing the process.
func TestCheckParallelShardPanicReachesCaller(t *testing.T) {
	files := checkParallelFiles(t)
	// An expression statement without an expression is unreachable
	// from Parse; the body pass dereferences it inside main.c's shard.
	for _, d := range files[2].Decls {
		if fd, ok := d.(*FuncDecl); ok && fd.Name == "main" {
			fd.Body.Stmts = append(fd.Body.Stmts, &ExprStmt{})
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("shard panic was not re-raised on the caller")
		}
	}()
	CheckParallel(2, files...)
}
