package core

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/bdd"
)

// TestSolverOptionsFingerprintPinned pins the digests of a spread of
// Solver settings. They are the result-cache keys of the analysis
// service, so an options refactor must leave every one unchanged.
func TestSolverOptionsFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		s    SolverOptions
		want string
	}{
		{SolverOptions{}, "cecf35781c0030af4a979f296b9f951957794b2920c4064034111ca7554665f1"},
		{SolverOptions{Backend: BDDBackend}, "57a44afa188cd4beb27af44cf0a1045cdbc41c6f2cb8094b4ef8f2a505f303cb"},
		{SolverOptions{Workers: 4}, "cecf35781c0030af4a979f296b9f951957794b2920c4064034111ca7554665f1"},
		{SolverOptions{MaxRounds: 3}, "c8c1955bb818577e8bc95220125f70de9d6a835272f9a8d79f69e7c0c1cc15f5"},
		{SolverOptions{PtsLimit: 2}, "8160e740a4e37ba1487b574875f9ee6e0e8c66fcce67dd6c543572e298098312"},
		{SolverOptions{Backend: BDDBackend, BDD: bdd.Config{NodeSize: 1, GC: true, GCThreshold: 1}},
			"57a44afa188cd4beb27af44cf0a1045cdbc41c6f2cb8094b4ef8f2a505f303cb"},
		{SolverOptions{Backend: BDDBackend, MaxRounds: 2, PtsLimit: 5, Workers: 2},
			"faa0d08340c2a581ee2a1e0a7a379ee6d2cf1b59d3eddb8aa5658884099a7cc4"},
	} {
		if got := (Options{Solver: tc.s}).Fingerprint(); got != tc.want {
			t.Errorf("Solver %+v: fingerprint %s, want %s", tc.s, got, tc.want)
		}
	}
}

func TestSolverOptionsFingerprintExclusions(t *testing.T) {
	base := Options{}
	for _, o := range []Options{
		{Solver: SolverOptions{Workers: 4}},
		{Solver: SolverOptions{Workers: 16}},
		{Solver: SolverOptions{BDD: bdd.Config{NodeSize: 1 << 20}}},
		{Solver: SolverOptions{BDD: bdd.Config{NodeSize: 1 << 20, CacheRatio: 8}}},
	} {
		if o.Fingerprint() != base.Fingerprint() {
			t.Errorf("options %+v changed the fingerprint; Workers and BDD sizing cannot change results and must not key the cache", o.Solver)
		}
	}
	// MaxRounds does change results, so it must be fingerprinted — but
	// only when nonzero, so pre-SolverOptions digests stay valid.
	if (Options{Solver: SolverOptions{MaxRounds: 3}}).Fingerprint() == base.Fingerprint() {
		t.Errorf("nonzero MaxRounds did not change the fingerprint")
	}
	if (Options{Solver: SolverOptions{MaxRounds: 0}}).Fingerprint() != base.Fingerprint() {
		t.Errorf("zero MaxRounds changed the fingerprint")
	}
}

func TestSolverOptionsValidate(t *testing.T) {
	ok := Options{Entry: "main"}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		o    Options
		want string
	}{
		{"negative workers", Options{Entry: "main", Solver: SolverOptions{Workers: -1}}, "Solver.Workers"},
		{"negative max rounds", Options{Entry: "main", Solver: SolverOptions{MaxRounds: -2}}, "Solver.MaxRounds"},
	} {
		err := tc.o.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.o.Solver)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
}

// TestSolverWorkersSameReport is the API-level determinism pin: the
// same sources at workers 0, 1, 2, and 4 render the same report text.
func TestSolverWorkersSameReport(t *testing.T) {
	sources := map[string]string{
		"a.c": `
struct node { int *p; };
void *apr_palloc(void *r, int n);
void apr_pool_create(void **np, void *parent);
void apr_pool_destroy(void *r);
void fill(void *r, struct node *n) { n->p = apr_palloc(r, 4); }
int main() {
    void *root; void *sub;
    apr_pool_create(&root, 0);
    apr_pool_create(&sub, root);
    struct node *n = apr_palloc(root, 8);
    fill(sub, n);
    apr_pool_destroy(sub);
    return 0;
}`,
	}
	var want string
	for _, w := range []int{0, 1, 2, 4} {
		a, err := AnalyzeSource(Options{Solver: SolverOptions{Workers: w}}, sources)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		got := canonicalReportText(t, a.Report)
		if w == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d report differs from sequential:\n%s\nwant:\n%s", w, got, want)
		}
	}
}

// canonicalReportText renders a report with the volatile stats (wall
// time, per-phase metrics) removed — the same byte-equality contract
// the oracle and regionbench use.
func canonicalReportText(t *testing.T, r *Report) string {
	t.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	if stats, ok := m["stats"].(map[string]interface{}); ok {
		delete(stats, "time_ms")
		delete(stats, "phases")
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("remarshal report: %v", err)
	}
	return string(out)
}
