package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/workloads"
)

// incrementalDoc is the -edit-loop output (schema
// regionbench/incremental/v1): a cold full analysis of the largest
// workload split into files, then N steady-state single-file edits
// re-analyzed through the snapshot path, with the latency and the
// per-phase wall time and allocation of each.
type incrementalDoc struct {
	Schema string `json:"schema"`
	Seed   int64  `json:"seed"`
	// HostCPUs is runtime.NumCPU() on the machine that produced the
	// document.
	HostCPUs int `json:"host_cpus"`
	// Workload is the analyzed executable; Files the number of source
	// files after splitting (shared library included).
	Workload string `json:"workload"`
	Files    int    `json:"files"`
	// ColdFullMS is the from-scratch analysis of the unedited corpus.
	ColdFullMS float64    `json:"cold_full_ms"`
	Steps      []editStep `json:"steps"`
	// MedianStepMS and Speedup summarize the steady state: speedup is
	// cold_full_ms / median_step_ms.
	MedianStepMS float64 `json:"median_step_ms"`
	Speedup      float64 `json:"speedup"`
	// MedianPhases is, per phase, the median over the steps of its
	// wall time and allocation.
	MedianPhases []stepPhase `json:"median_phases"`
}

// stepPhase is one phase's cost in an edit step (or the median over
// steps). Allocation is the process-wide counter, exact here because
// the edit loop runs one analysis at a time.
type stepPhase struct {
	Name       string  `json:"name"`
	TimeMS     float64 `json:"time_ms"`
	AllocBytes int64   `json:"alloc_bytes"`
}

type editStep struct {
	Step   int     `json:"step"`
	File   string  `json:"file"`
	TimeMS float64 `json:"time_ms"`
	// FilesReused / FilesReparsed count per-file parse reuse; the other
	// counters confirm the check/lower/callgraph fast paths held.
	FilesReused     int         `json:"files_reused"`
	FilesReparsed   int         `json:"files_reparsed"`
	CheckReused     int         `json:"check_reused"`
	LowerReused     int         `json:"lower_reused"`
	CallGraphDirect bool        `json:"callgraph_direct"`
	Phases          []stepPhase `json:"phases"`
}

// editLoopChunks is how many files the workload's executable is split
// into (the shared library rides along as one more).
const editLoopChunks = 8

// runEditLoop measures steady-state incremental re-analysis: split the
// largest workload into files, analyze cold, then repeatedly edit one
// file and re-analyze as a delta against the previous snapshot. The
// final state is verified against a from-scratch run before any
// numbers are written.
func runEditLoop(path string, steps int, seed int64, pkgs []*workloads.Package) error {
	pkg := pkgs[0]
	for _, p := range pkgs[1:] {
		if p.KLOC > pkg.KLOC {
			pkg = p
		}
	}
	exe := pkg.Exes[0]
	sources := pkg.SplitSourcesFor(exe, editLoopChunks)
	var chunkPaths []string
	for p := range sources {
		if strings.HasPrefix(p, exe.Name+"-") {
			chunkPaths = append(chunkPaths, p)
		}
	}
	sort.Strings(chunkPaths)

	ctx := context.Background()
	runtime.GC() // isolate each timed run from the previous one's garbage
	t0 := time.Now()
	_, snap, err := core.AnalyzeSourceSnapshot(ctx, benchOpts, sources)
	if err != nil {
		return fmt.Errorf("cold analysis of %s: %w", exe.Name, err)
	}
	cold := time.Since(t0)

	doc := incrementalDoc{
		Schema:     "regionbench/incremental/v1",
		Seed:       seed,
		HostCPUs:   runtime.NumCPU(),
		Workload:   exe.Name,
		Files:      len(sources),
		ColdFullMS: ms(cold),
	}
	cur := make(map[string]string, len(sources))
	for p, c := range sources {
		cur[p] = c
	}
	for i := 0; i < steps; i++ {
		p := chunkPaths[i%len(chunkPaths)]
		cur[p] = editBody(cur[p], i)
		runtime.GC()
		t := time.Now()
		a, next, err := core.AnalyzeIncremental(ctx, benchOpts, snap,
			map[string]string{p: cur[p]}, nil)
		if err != nil {
			return fmt.Errorf("edit step %d (%s): %w", i+1, p, err)
		}
		wall := time.Since(t)
		snap = next
		var phases []stepPhase
		for _, ph := range a.Report.Stats.Phases {
			phases = append(phases, stepPhase{Name: ph.Name, TimeMS: ms(ph.Time), AllocBytes: ph.AllocBytes})
		}
		doc.Steps = append(doc.Steps, editStep{
			Step:            i + 1,
			File:            p,
			TimeMS:          ms(wall),
			FilesReused:     a.Front.ParseReused,
			FilesReparsed:   a.Front.ParseParsed,
			CheckReused:     a.Front.CheckReused,
			LowerReused:     a.Front.LowerReused,
			CallGraphDirect: a.Front.CallGraphDirect,
			Phases:          phases,
		})
		last := a
		if i == steps-1 {
			// Honesty check before publishing numbers: the chain of
			// deltas must land on the same report a cold run produces.
			full, _, err := core.AnalyzeSourceSnapshot(ctx, benchOpts, cur)
			if err != nil {
				return fmt.Errorf("verification run: %w", err)
			}
			if got, want := stableReportJSON(last.Report), stableReportJSON(full.Report); got != want {
				return fmt.Errorf("incremental report diverged from from-scratch after %d steps", steps)
			}
		}
	}

	times := make([]float64, len(doc.Steps))
	for i, s := range doc.Steps {
		times[i] = s.TimeMS
	}
	sort.Float64s(times)
	if len(times) > 0 {
		doc.MedianStepMS = times[len(times)/2]
		if doc.MedianStepMS > 0 {
			doc.Speedup = doc.ColdFullMS / doc.MedianStepMS
		}
		for i, ph := range doc.Steps[0].Phases {
			wall := make([]float64, len(doc.Steps))
			alloc := make([]int64, len(doc.Steps))
			for j, s := range doc.Steps {
				wall[j], alloc[j] = s.Phases[i].TimeMS, s.Phases[i].AllocBytes
			}
			sort.Float64s(wall)
			sort.Slice(alloc, func(a, b int) bool { return alloc[a] < alloc[b] })
			doc.MedianPhases = append(doc.MedianPhases, stepPhase{Name: ph.Name, TimeMS: wall[len(wall)/2], AllocBytes: alloc[len(alloc)/2]})
		}
	}

	if path != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(data, '\n'), 0o644)
	}
	fmt.Printf("incremental: %s (%d files), cold %.1fms, median edit %.1fms, speedup %.1fx\n",
		doc.Workload, doc.Files, doc.ColdFullMS, doc.MedianStepMS, doc.Speedup)
	for _, s := range doc.Steps {
		fmt.Printf("  step %2d  %-22s %8.1fms  reused %d/%d  direct=%v\n",
			s.Step, s.File, s.TimeMS, s.FilesReused, s.FilesReused+s.FilesReparsed, s.CallGraphDirect)
	}
	return nil
}

// editBody makes a body-only edit to one chunk — appending a statement
// inside the first filler function when one is present (so the IR
// really changes), a trailing comment otherwise. Either way the file's
// digest moves while every declaration signature stays put, keeping
// the analysis on the incremental fast path.
func editBody(src string, step int) string {
	const marker = "    return acc;\n}"
	if i := strings.Index(src, marker); i >= 0 {
		return src[:i] + fmt.Sprintf("    acc = acc + %d;\n", step+1) + src[i:]
	}
	return src + fmt.Sprintf("\n/* edit %d */\n", step+1)
}

// stableReportJSON renders a report with the volatile stats (wall
// times, per-phase metrics) removed.
func stableReportJSON(r *core.Report) string {
	raw, err := json.Marshal(r)
	if err != nil {
		return "marshal-error: " + err.Error()
	}
	var m map[string]interface{}
	if err := json.Unmarshal(raw, &m); err != nil {
		return "unmarshal-error: " + err.Error()
	}
	if stats, ok := m["stats"].(map[string]interface{}); ok {
		delete(stats, "time_ms")
		delete(stats, "phases")
	}
	out, err := json.Marshal(m)
	if err != nil {
		return "remarshal-error: " + err.Error()
	}
	return string(out)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
