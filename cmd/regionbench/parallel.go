package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/workloads"
)

// parallelDoc is the -parallel-bench output (schema
// regionbench/parallel/v1): the largest workload, split into files so
// the front end has shardable work, analyzed end to end at several
// solver worker counts on both backends. Alongside the speedups it
// records the one property the sharded front end must never trade
// away: the report at every worker count is byte-identical to the
// sequential one (volatile wall-time stats excluded).
type parallelDoc struct {
	Schema string `json:"schema"`
	Seed   int64  `json:"seed"`
	// Workload is the analyzed executable; Files the number of source
	// files after splitting.
	Workload string `json:"workload"`
	Files    int    `json:"files"`
	// Rounds is how many timed repetitions each configuration ran; the
	// reported time is the median.
	Rounds int `json:"rounds"`
	// HostCPUs is runtime.NumCPU() on the machine that produced the
	// numbers. Measured speedups are bounded by it: on a host with
	// fewer than 4 CPUs, speedup_4w measures oversubscription, not the
	// sharding's potential.
	HostCPUs int               `json:"host_cpus"`
	Backends []parallelBackend `json:"backends"`
}

type parallelBackend struct {
	Backend string        `json:"backend"`
	Runs    []parallelRun `json:"runs"`
	// Speedup4W is sequential median over 4-worker median.
	Speedup4W float64 `json:"speedup_4w"`
	// ReportsIdentical is true when every worker count produced the
	// same canonical report as workers=1.
	ReportsIdentical bool `json:"reports_identical"`
}

type parallelRun struct {
	Workers int     `json:"workers"`
	TimeMS  float64 `json:"time_ms"`
	// RunsMS lists every repetition (TimeMS is their median).
	RunsMS []float64 `json:"runs_ms"`
}

const (
	parallelBenchRounds = 3
	// parallelBenchChunks splits the workload finer than -edit-loop
	// does: with ~2x files per worker at the widest configuration the
	// longest single file stops dominating a shard.
	parallelBenchChunks = 16
)

var parallelBenchWorkers = []int{1, 2, 4}

// runParallelBench measures end-to-end single-workload scaling across
// solver worker counts and verifies worker-count report parity on both
// backends before writing any numbers.
func runParallelBench(path string, seed int64, pkgs []*workloads.Package) error {
	pkg := pkgs[0]
	for _, p := range pkgs[1:] {
		if p.KLOC > pkg.KLOC {
			pkg = p
		}
	}
	exe := pkg.Exes[0]
	// Split into files: parallel parse/check/lower need multiple files
	// to shard over, and real corpora are multi-file.
	sources := pkg.SplitSourcesFor(exe, parallelBenchChunks)

	doc := parallelDoc{
		Schema:   "regionbench/parallel/v1",
		Seed:     seed,
		Workload: exe.Name,
		Files:    len(sources),
		Rounds:   parallelBenchRounds,
		HostCPUs: runtime.NumCPU(),
	}

	ctx := context.Background()
	for _, backend := range []core.Backend{core.ExplicitBackend, core.BDDBackend} {
		pb := parallelBackend{ReportsIdentical: true}
		if backend == core.BDDBackend {
			pb.Backend = "bdd"
		} else {
			pb.Backend = "explicit"
		}
		baseline := ""
		for _, workers := range parallelBenchWorkers {
			opts := benchOpts
			opts.Solver.Backend = backend
			opts.Solver.Workers = workers
			run := parallelRun{Workers: workers}
			var rep string
			for r := 0; r < parallelBenchRounds; r++ {
				runtime.GC()
				t0 := time.Now()
				a, err := core.AnalyzeSourceContext(ctx, opts, sources)
				if err != nil {
					return fmt.Errorf("%s workers=%d: %w", pb.Backend, workers, err)
				}
				run.RunsMS = append(run.RunsMS, ms(time.Since(t0)))
				rep = stableReportJSON(a.Report)
			}
			run.TimeMS = medianMS(run.RunsMS)
			if baseline == "" {
				baseline = rep
			} else if rep != baseline {
				pb.ReportsIdentical = false
			}
			pb.Runs = append(pb.Runs, run)
		}
		for _, run := range pb.Runs {
			if run.Workers == 4 && run.TimeMS > 0 {
				pb.Speedup4W = pb.Runs[0].TimeMS / run.TimeMS
			}
		}
		if !pb.ReportsIdentical {
			return fmt.Errorf("%s backend: reports differ across worker counts — refusing to write benchmark numbers", pb.Backend)
		}
		doc.Backends = append(doc.Backends, pb)
	}

	if path != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(data, '\n'), 0o644)
	}
	fmt.Printf("parallel: %s (%d files), median of %d, host CPUs %d\n",
		doc.Workload, doc.Files, doc.Rounds, doc.HostCPUs)
	for _, pb := range doc.Backends {
		for _, run := range pb.Runs {
			fmt.Printf("  %-8s workers=%d  %8.1fms\n", pb.Backend, run.Workers, run.TimeMS)
		}
		fmt.Printf("  %-8s speedup(4w) %.2fx, reports identical: %v\n",
			pb.Backend, pb.Speedup4W, pb.ReportsIdentical)
	}
	return nil
}

func medianMS(runs []float64) float64 {
	if len(runs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), runs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}
