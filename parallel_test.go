package regionwiz

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// normalizedReportJSON marshals a report with run-dependent cost
// fields (wall times, allocation deltas) zeroed, so two runs of the
// same analysis can be compared byte-for-byte.
func normalizedReportJSON(t *testing.T, r *core.Report) []byte {
	t.Helper()
	r.Stats.Time = 0
	for i := range r.Stats.Phases {
		r.Stats.Phases[i].Time = 0
		r.Stats.Phases[i].AllocBytes = 0
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestParallelCorpusMatchesSerial drives every executable of the
// generated corpus through pipeline.RunCorpus with four workers and
// requires byte-identical reports to serial execution — the
// correctness contract of the parallel corpus driver (run under
// -race in CI, where it also proves the analyses share no state).
func TestParallelCorpusMatchesSerial(t *testing.T) {
	type job struct {
		name    string
		sources map[string]string
	}
	var jobs []job
	for _, spec := range workloads.SmallCorpus() {
		pkg := workloads.Generate(spec, 2008)
		for _, exe := range pkg.Exes {
			jobs = append(jobs, job{exe.Name, pkg.SourcesFor(exe)})
		}
	}
	if len(jobs) < 4 {
		t.Fatalf("only %d workload executables; need >= 4 for a meaningful parallel run", len(jobs))
	}

	serial := make([][]byte, len(jobs))
	for i, j := range jobs {
		a, err := core.AnalyzeSource(core.Options{}, j.sources)
		if err != nil {
			t.Fatalf("serial %s: %v", j.name, err)
		}
		serial[i] = normalizedReportJSON(t, a.Report)
	}

	results := pipeline.RunCorpus(context.Background(), jobs, 4,
		func(ctx context.Context, j job) (*core.Analysis, error) {
			return core.AnalyzeSourceContext(ctx, core.Options{}, j.sources)
		})
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("parallel %s: %v", jobs[i].name, res.Err)
		}
		got := normalizedReportJSON(t, res.Out.Report)
		if !bytes.Equal(got, serial[i]) {
			t.Errorf("%s: parallel report differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				jobs[i].name, serial[i], got)
		}
	}
}

// TestSolverWorkersDeterminism pins the contract of the sharded front
// end: for every small-corpus executable, the canonical report
// (oracle.CanonicalReport — warnings plus the stable stats) is
// byte-identical at workers 1, 2, and 4 on both backends. Sources are
// split into files so parse, check and lower actually shard. Run under
// -race in CI, this doubles as the data-race proof for the per-shard
// state.
func TestSolverWorkersDeterminism(t *testing.T) {
	for _, spec := range workloads.SmallCorpus() {
		pkg := workloads.Generate(spec, 2008)
		for _, exe := range pkg.Exes {
			sources := pkg.SplitSourcesFor(exe, 4)
			for _, backend := range []core.Backend{core.ExplicitBackend, core.BDDBackend} {
				var want []byte
				for _, workers := range []int{1, 2, 4} {
					opts := core.Options{Solver: core.SolverOptions{
						Workers: workers,
						Backend: backend,
					}}
					a, err := core.AnalyzeSource(opts, sources)
					if err != nil {
						t.Fatalf("%s backend=%d workers=%d: %v", exe.Name, backend, workers, err)
					}
					got := oracle.CanonicalReport(a.Report)
					if workers == 1 {
						want = got
						continue
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s backend=%d: workers=%d report differs from workers=1:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
							exe.Name, backend, workers, want, workers, got)
					}
				}
			}
		}
	}
}
