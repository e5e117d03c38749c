package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/workloads"
)

// kernelDoc is the -kernel-bench output (schema regionbench/kernel/v1):
// the BDD kernel's memory trajectory on the heaviest workload under
// two lifecycle configurations — no GC and mark-and-sweep GC — with a
// report-parity gate. The headline number is the peak live node count:
// GC must reduce it (that is the point of sweeping between strata), and
// the walls say what that reduction costs.
type kernelDoc struct {
	Schema   string `json:"schema"`
	Seed     int64  `json:"seed"`
	Workload string `json:"workload"`
	Exes     int    `json:"exes"`
	// Rounds is how many timed repetitions each configuration ran; the
	// wall fields are medians, the kernel counters come from the first
	// round (they are identical across rounds).
	Rounds  int               `json:"rounds"`
	Configs []kernelConfigDoc `json:"configs"`
	// PeakReductionVsBaseline maps config name -> 1 - peak/baselinePeak
	// (0.35 = the config's peak is 35% below the no-GC kernel's).
	PeakReductionVsBaseline map[string]float64 `json:"peak_reduction_vs_baseline"`
	// ReportsIdentical is true when every configuration produced the
	// same canonical report on every executable — the document is not
	// written otherwise.
	ReportsIdentical bool `json:"reports_identical"`
}

type kernelConfigDoc struct {
	Name string `json:"name"`
	GC   bool   `json:"gc"`
	// PeakNodes / FinalNodes sum the per-executable kernel peaks and
	// final live counts across the workload's executables.
	PeakNodes  int64 `json:"peak_nodes"`
	FinalNodes int64 `json:"final_nodes"`
	// Lifecycle counters, summed across executables.
	Collections uint64  `json:"collections"`
	NodesFreed  uint64  `json:"nodes_freed"`
	SweepMS     float64 `json:"sweep_ms"`
	// PairsWallMS is the pairs phase's wall (median over rounds,
	// summed across executables); TotalWallMS the whole pipeline's.
	PairsWallMS float64 `json:"pairs_wall_ms"`
	TotalWallMS float64 `json:"total_wall_ms"`
	// RelProdMS is the synthetic relational-product microbenchmark
	// under this kernel configuration (median over rounds).
	RelProdMS float64 `json:"relprod_ms"`
}

// parseBenchtime accepts go-test style "-benchtime Nx" repetition
// counts (only the "x" form: kernel counters are deterministic, so
// duration-targeted timing has nothing to converge on).
func parseBenchtime(s string) (int, error) {
	if !strings.HasSuffix(s, "x") {
		return 0, fmt.Errorf("-benchtime %q: want a repetition count like 3x", s)
	}
	n, err := strconv.Atoi(strings.TrimSuffix(s, "x"))
	if err != nil || n < 1 {
		return 0, fmt.Errorf("-benchtime %q: want a positive repetition count like 3x", s)
	}
	return n, nil
}

var kernelConfigs = []struct {
	name string
	cfg  bdd.Config
}{
	{"baseline", bdd.Config{}},
	{"gc", bdd.Config{GC: true}},
}

// runKernelBench measures the kernel lifecycle trajectory on the
// heaviest corpus package (subversion carries the bulk of the
// warnings) and refuses to write numbers unless every configuration
// reproduces the baseline report byte for byte.
func runKernelBench(path string, seed int64, rounds int, pkgs []*workloads.Package) error {
	var pkg *workloads.Package
	for _, p := range pkgs {
		if p.Spec.Name == "subversion" {
			pkg = p
		}
	}
	if pkg == nil { // small corpus: fall back to the largest package
		pkg = pkgs[0]
		for _, p := range pkgs[1:] {
			if p.KLOC > pkg.KLOC {
				pkg = p
			}
		}
	}

	doc := kernelDoc{
		Schema:                  "regionbench/kernel/v1",
		Seed:                    seed,
		Workload:                pkg.Spec.Name,
		Exes:                    len(pkg.Exes),
		Rounds:                  rounds,
		PeakReductionVsBaseline: map[string]float64{},
		ReportsIdentical:        true,
	}

	// Canonical per-exe reports from the baseline config gate the rest.
	var baseline []string
	for _, c := range kernelConfigs {
		kc := kernelConfigDoc{Name: c.name, GC: c.cfg.GC}
		var totalsMS, pairsMS, relprodMS []float64
		for r := 0; r < rounds; r++ {
			var total, pairs float64
			var reports []string
			firstRound := r == 0
			for _, exe := range pkg.Exes {
				opts := benchOpts
				opts.Solver.Backend = core.BDDBackend
				opts.Solver.BDD = c.cfg
				runtime.GC()
				t0 := time.Now()
				a, err := core.AnalyzeSource(opts, pkg.SourcesFor(exe))
				if err != nil {
					return fmt.Errorf("%s %s: %w", c.name, exe.Name, err)
				}
				total += ms(time.Since(t0))
				for _, p := range a.Report.Stats.Phases {
					if p.Name == core.PhasePairs {
						pairs += ms(p.Time)
					}
				}
				if firstRound {
					st := a.BDDStats()
					kc.PeakNodes += int64(st.PeakNodes)
					kc.FinalNodes += int64(st.Nodes)
					kc.Collections += st.Collections
					kc.NodesFreed += st.NodesFreed
					kc.SweepMS += float64(st.SweepWallNS) / float64(time.Millisecond)
				}
				reports = append(reports, stableReportJSON(a.Report))
			}
			totalsMS = append(totalsMS, total)
			pairsMS = append(pairsMS, pairs)
			relprodMS = append(relprodMS, relProdMicro(c.cfg))
			if baseline == nil {
				baseline = reports
				continue
			}
			for i := range reports {
				if reports[i] != baseline[i] {
					doc.ReportsIdentical = false
					return fmt.Errorf("%s: report for %s differs from baseline — refusing to write benchmark numbers",
						c.name, pkg.Exes[i].Name)
				}
			}
		}
		kc.TotalWallMS = medianMS(totalsMS)
		kc.PairsWallMS = medianMS(pairsMS)
		kc.RelProdMS = medianMS(relprodMS)
		doc.Configs = append(doc.Configs, kc)
	}

	basePeak := doc.Configs[0].PeakNodes
	for _, kc := range doc.Configs[1:] {
		if basePeak > 0 {
			doc.PeakReductionVsBaseline[kc.Name] = 1 - float64(kc.PeakNodes)/float64(basePeak)
		}
	}

	if path != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(data, '\n'), 0o644)
	}
	fmt.Printf("kernel: %s (%d exes), median of %d\n", doc.Workload, doc.Exes, doc.Rounds)
	for _, kc := range doc.Configs {
		fmt.Printf("  %-10s peak %7d  final %7d  gc %3d (freed %7d, %.1fms)  pairs %7.1fms  total %7.1fms  relprod %6.1fms\n",
			kc.Name, kc.PeakNodes, kc.FinalNodes, kc.Collections, kc.NodesFreed, kc.SweepMS,
			kc.PairsWallMS, kc.TotalWallMS, kc.RelProdMS)
	}
	for name, red := range doc.PeakReductionVsBaseline {
		fmt.Printf("  peak reduction %-10s %.1f%%\n", name, 100*red)
	}
	return nil
}

// relProdMicro times the kernel's hot operation — AndExists, the
// relational product — on a synthetic join under the given lifecycle
// configuration: two random binary relations over interleaved 256-value
// domains, joined on the shared column, with the GC safe point between
// products (pinning the accumulated result) the way the datalog solver
// runs it.
func relProdMicro(cfg bdd.Config) float64 {
	const (
		domSize = 256
		tuples  = 512
		reps    = 32
	)
	m := bdd.NewWith(cfg)
	ds := m.NewInterleavedDomains([]string{"a", "b", "c"}, []uint64{domSize, domSize, domSize})
	a, b, c := ds[0], ds[1], ds[2]
	rng := rand.New(rand.NewSource(42))
	r1, r2 := bdd.False, bdd.False
	for i := 0; i < tuples; i++ {
		r1 = m.Or(r1, m.And(a.Eq(rng.Uint64()%domSize), b.Eq(rng.Uint64()%domSize)))
		r2 = m.Or(r2, m.And(b.Eq(rng.Uint64()%domSize), c.Eq(rng.Uint64()%domSize)))
	}
	m.Ref(r1)
	m.Ref(r2)
	cube := m.Ref(b.Cube())

	t0 := time.Now()
	acc := bdd.False
	for i := 0; i < reps; i++ {
		acc = m.Or(acc, m.AndExists(r1, r2, cube))
		// Safe point between products: everything still needed is
		// pinned, mirroring the solver's round boundary.
		m.Ref(acc)
		m.MaybeCollect()
		m.Deref(acc)
	}
	return ms(time.Since(t0))
}
