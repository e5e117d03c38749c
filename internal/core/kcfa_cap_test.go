package core

import (
	"reflect"
	"testing"

	"repro/internal/workloads"
)

// TestKCFACapAnalysisTerminates drives the contexts package's k-CFA
// cap-overflow path through the whole pipeline: with a cap far below
// the program's context demand the analysis must still terminate, two
// runs must produce identical reports (overflow merging is
// hashString(cs) % cap — a pure function of the call string, so the
// numbering cannot depend on iteration order), and both backends must
// agree under the capped numbering.
func TestKCFACapAnalysisTerminates(t *testing.T) {
	pkg := workloads.Generate(workloads.Spec{
		Name: "kcap", Exes: 1, Stages: 2, Depth: 3, Fanout: 2,
		Interface: "apr",
		Plants:    []workloads.Pattern{workloads.SiblingLeak, workloads.IteratorEscape},
	}, 7)
	sources := pkg.SourcesFor(pkg.Exes[0])

	opts := Options{KCFA: 2, ContextCap: 2}
	run := func(backend Backend) *Analysis {
		o := opts
		o.Solver.Backend = backend
		a, err := AnalyzeSource(o, sources)
		if err != nil {
			t.Fatalf("backend %d: %v", backend, err)
		}
		return a
	}

	first := run(ExplicitBackend)
	if first.Report.Stats.Contexts == 0 {
		t.Fatal("no contexts counted")
	}
	if !first.Numbering.Capped {
		t.Fatal("cap never overflowed; the test is not exercising the merge path")
	}
	again := run(ExplicitBackend)
	if !reflect.DeepEqual(first.Report.Warnings, again.Report.Warnings) {
		t.Fatalf("capped k-CFA analysis nondeterministic:\n%v\nvs\n%v",
			first.Report.Warnings, again.Report.Warnings)
	}
	bdd := run(BDDBackend)
	if !reflect.DeepEqual(first.PairSites(), bdd.PairSites()) {
		t.Fatalf("backend disparity under capped k-CFA:\n%v\nvs\n%v",
			first.PairSites(), bdd.PairSites())
	}
}
