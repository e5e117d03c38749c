package cminor

import "testing"

// FuzzParse feeds raw bytes to the parser, and checks whatever parses
// cleanly: malformed input must come back as diagnostics, never as a
// panic. Crashers found so far live in testdata/fuzz/FuzzParse and run
// as regression cases under plain go test.
//
// Run bounded in CI: go test ./internal/cminor -run '^$' -fuzz FuzzParse -fuzztime 10s
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		"int main(void) { return 0; }",
		"struct s { int *p; }; int f(struct s *x) { return *x->p; }",
		"char *s = \"a\\n\"; int c = '\\t';",
		"typedef int (*fp)(void *, int); enum e { A, B = 3 };",
		"int g(int n) { switch (n) { case 1: return 2; default: break; } return n ? 1 : 0; }",
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		file, errs := Parse("fuzz.c", string(src))
		if len(errs) == 0 {
			Check(file)
		}
	})
}
