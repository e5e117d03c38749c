package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// TestPlantCheckUsesGeneratorGroundTruth analyzes a generated program
// with one planted bug: the real report passes, a report that lost the
// warning fails, and a program without plants must report nothing.
func TestPlantCheckUsesGeneratorGroundTruth(t *testing.T) {
	spec := workloads.Spec{Name: "t", Exes: 1, Stages: 2, Depth: 2, Fanout: 2, FillerFuncs: 3,
		Interface: "apr", Plants: []workloads.Pattern{workloads.SiblingLeak}}
	pkg := workloads.Generate(spec, 1)
	p, err := newProgram(pkg.Exes[0], pkg.SourcesFor(pkg.Exes[0]))
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.AnalyzeSource(core.Options{}, p.sources)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(a.Report)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ref.check(data); err != nil {
		t.Fatalf("real report rejected: %v", err)
	}
	empty := []byte(`{"schema":"regionwiz/report/v1","warnings":[],"stats":{}}`)
	if err := p.ref.check(empty); err == nil {
		t.Errorf("report without the planted bug accepted")
	}
	clean := plantRef{clean: true}
	if err := clean.check(data); err == nil {
		t.Errorf("warnings on a program without plants accepted")
	}
}

func TestCanonicalDropsOnlyVolatileStats(t *testing.T) {
	a := []byte(`{"schema":"s","warnings":[],"stats":{"time_ms":1.5,"regions":3,"phases":[{"name":"parse","time_ms":0.1}]}}`)
	b := []byte(`{"schema":"s","warnings":[],"stats":{"time_ms":9.0,"regions":3,"phases":[{"name":"parse","time_ms":0.7}]}}`)
	c := []byte(`{"schema":"s","warnings":[],"stats":{"time_ms":1.5,"regions":4}}`)
	ca, _ := canonical(a)
	cb, _ := canonical(b)
	cc, _ := canonical(c)
	if string(ca) != string(cb) {
		t.Errorf("timing changed canonical bytes: %s vs %s", ca, cb)
	}
	if string(ca) == string(cc) || !strings.Contains(string(cc), `"regions":4`) {
		t.Errorf("a real difference vanished: %s vs %s", ca, cc)
	}
}

func TestBodyEditKeepsDeclarations(t *testing.T) {
	src := "int filler_0(int x) {\n    int acc;\n    acc = 1;\n" + fillerReturn + "\n\nint filler_1(int x) {\n    int acc;\n    acc = 2;\n" + fillerReturn + "\n"
	got := bodyEdit(src, 3, 42) // 3 mod 2 fillers = the second one
	want := strings.Replace(src, "acc = 2;\n", "acc = 2;\n    acc = acc + 42;\n", 1)
	if got != want {
		t.Errorf("bodyEdit:\n%s\nwant:\n%s", got, want)
	}
}
