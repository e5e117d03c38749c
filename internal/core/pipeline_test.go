package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// corpusSources returns a realistic multi-file program from the
// workload generators.
func corpusSources(t testing.TB) map[string]string {
	t.Helper()
	for _, spec := range workloads.SmallCorpus() {
		if spec.Name != "subversion" {
			continue
		}
		pkg := workloads.Generate(spec, 2008)
		return pkg.SourcesFor(pkg.Exes[0])
	}
	t.Fatal("no subversion spec in the small corpus")
	return nil
}

// normalizeReport zeroes the run-dependent cost fields (wall times,
// allocation deltas) so reports can be compared byte-for-byte; every
// analysis fact — warnings, relation sizes, phase outputs — is kept.
func normalizeReport(r *Report) {
	r.Stats.Time = 0
	for i := range r.Stats.Phases {
		r.Stats.Phases[i].Time = 0
		r.Stats.Phases[i].AllocBytes = 0
	}
}

func reportBytes(t testing.TB, r *Report) []byte {
	t.Helper()
	normalizeReport(r)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// TestReportDeterminism runs the same analysis twice and requires the
// JSON reports to match byte-for-byte once timing fields are zeroed —
// the regression net for the documented warning total order and for
// any map-iteration nondeterminism anywhere in the pipeline.
func TestReportDeterminism(t *testing.T) {
	sources := corpusSources(t)
	var runs [][]byte
	for i := 0; i < 2; i++ {
		a, err := AnalyzeSource(Options{}, sources)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if len(a.Report.Warnings) == 0 {
			t.Fatal("workload produced no warnings; the test needs a nontrivial report")
		}
		runs = append(runs, reportBytes(t, a.Report))
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Errorf("reports differ between identical runs:\n--- run 0 ---\n%s\n--- run 1 ---\n%s",
			runs[0], runs[1])
	}
}

// TestWarningTotalOrder checks the documented sort: rank first, then
// holder site, then pointee site, then pair key.
func TestWarningTotalOrder(t *testing.T) {
	a, err := AnalyzeSource(Options{}, corpusSources(t))
	if err != nil {
		t.Fatal(err)
	}
	ws := a.Report.Warnings
	for i := 1; i < len(ws); i++ {
		p, q := ws[i-1], ws[i]
		if !p.High() && q.High() {
			t.Fatalf("warning %d: low-ranked before high-ranked", i)
		}
		if p.High() != q.High() {
			continue
		}
		if p.SrcPos > q.SrcPos {
			t.Fatalf("warning %d: src %q after %q within one rank", i, p.SrcPos, q.SrcPos)
		}
		if p.SrcPos == q.SrcPos && p.DstPos > q.DstPos {
			t.Fatalf("warning %d: dst %q after %q", i, p.DstPos, q.DstPos)
		}
	}
}

// TestPhaseStatsInReport requires every analysis phase to be named
// and timed in the report, in pipeline order, and serialized in the
// JSON output.
func TestPhaseStatsInReport(t *testing.T) {
	a, err := AnalyzeSource(Options{}, corpusSources(t))
	if err != nil {
		t.Fatal(err)
	}
	want := PhaseNames()
	got := a.Report.Stats.Phases
	if len(got) != len(want) {
		t.Fatalf("report has %d phases, want %d (%v)", len(got), len(want), want)
	}
	for i, ps := range got {
		if ps.Name != want[i] {
			t.Errorf("phase[%d] = %q, want %q", i, ps.Name, want[i])
		}
	}
	// Key relations are attributed to their phases.
	find := func(name string) PhaseStat {
		for _, ps := range got {
			if ps.Name == name {
				return ps
			}
		}
		t.Fatalf("phase %q missing", name)
		return PhaseStat{}
	}
	if find(PhasePointer).Outputs["ptr_objects"] == 0 {
		t.Error("pointer phase reports no ptr_objects")
	}
	if find(PhaseRegions).Outputs["regions"] == 0 {
		t.Error("regions phase reports no regions")
	}
	if find(PhaseContexts).Outputs["contexts"] == 0 {
		t.Error("contexts phase reports no contexts")
	}
	// And they appear in the JSON serialization.
	data, err := json.Marshal(a.Report)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Stats struct {
			Phases []struct {
				Name    string           `json:"name"`
				Outputs map[string]int64 `json:"outputs"`
			} `json:"phases"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Stats.Phases) != len(want) {
		t.Fatalf("JSON has %d phases, want %d", len(decoded.Stats.Phases), len(want))
	}
}

// TestAnalyzeCancellation cancels mid-pipeline via an Observer and
// expects context.Canceled with no report.
func TestAnalyzeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	opts := Options{
		Observer: pipeline.ObserverFuncs[*Analysis]{
			End: func(name string, _ *Analysis, _ pipeline.PhaseMetrics) {
				if name == PhasePointer {
					cancel()
				}
			},
		},
	}
	a, err := AnalyzeSourceContext(ctx, opts, corpusSources(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if a != nil {
		t.Error("cancelled analysis should return nil")
	}
}

// TestAnalyzeExpiredDeadline runs against an already-expired context.
func TestAnalyzeExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AnalyzeSourceContext(ctx, Options{}, map[string]string{
		"main.c": "int main() { return 0; }",
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestObserverThroughOptions checks the Observer wiring end to end:
// callbacks arrive in pipeline order with start/end pairing.
func TestObserverThroughOptions(t *testing.T) {
	var events []string
	opts := Options{
		Observer: pipeline.ObserverFuncs[*Analysis]{
			Start: func(name string, _ *Analysis) { events = append(events, "start:"+name) },
			End:   func(name string, _ *Analysis, _ pipeline.PhaseMetrics) { events = append(events, "end:"+name) },
		},
	}
	_, err := AnalyzeSource(opts, map[string]string{
		"main.c": "int main() { return 0; }",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := PhaseNames()
	if len(events) != 2*len(want) {
		t.Fatalf("%d observer events, want %d: %v", len(events), 2*len(want), events)
	}
	for i, name := range want {
		if events[2*i] != "start:"+name || events[2*i+1] != "end:"+name {
			t.Fatalf("events around phase %q wrong: %v", name, events[2*i:2*i+2])
		}
	}
}

// TestBDDBackendMetrics checks that the BDD backend surfaces its
// node/tuple counts through the pairs phase.
func TestBDDBackendMetrics(t *testing.T) {
	a, err := AnalyzeSource(Options{Solver: SolverOptions{Backend: BDDBackend}}, corpusSources(t))
	if err != nil {
		t.Fatal(err)
	}
	var pairs *PhaseStat
	for i := range a.Report.Stats.Phases {
		if a.Report.Stats.Phases[i].Name == PhasePairs {
			pairs = &a.Report.Stats.Phases[i]
		}
	}
	if pairs == nil {
		t.Fatal("no pairs phase in report")
	}
	if pairs.Outputs["bdd_nodes"] == 0 || pairs.Outputs["datalog_tuples"] == 0 {
		t.Errorf("pairs outputs = %v, want bdd_nodes and datalog_tuples", pairs.Outputs)
	}
}
