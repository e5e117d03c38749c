// Command perfbench is RegionWiz's benchmark. It generates every input
// from a seed, drives the analyzer through its public entry points on
// four workloads, verifies every output against a reference the
// analyzer did not produce, and prints end-to-end metrics (untraced
// runs) or per-layer metrics (traced runs). The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root with perfbench/run.sh, which builds
// this package first:
//
//	bash perfbench/run.sh --workload corpus_cold --seed 2008 --seconds 20 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

//go:embed design.json
var designJSON []byte

// serveConfig is the serve_mixed load, fixed once in design.json with
// the reason for each value. The request classes share the traffic
// equally.
type serveConfig struct {
	Rate    valueWhy `json:"rate_per_s"`
	Limit   valueWhy `json:"latency_limit_ms"`
	Classes []string `json:"classes"`
}

type valueWhy struct {
	Value float64 `json:"value"`
	Why   string  `json:"why"`
}

func loadServeConfig() (serveConfig, error) {
	var d struct {
		Serve serveConfig `json:"serve_mixed"`
	}
	if err := json.Unmarshal(designJSON, &d); err != nil {
		return serveConfig{}, fmt.Errorf("design.json: %w", err)
	}
	if d.Serve.Rate.Value <= 0 || d.Serve.Limit.Value <= 0 || len(d.Serve.Classes) == 0 {
		return serveConfig{}, fmt.Errorf("design.json: serve_mixed needs a positive rate and limit and at least one class")
	}
	return d.Serve, nil
}

var workloadNames = []string{"corpus_cold", "dense_solver", "edit_loop", "serve_mixed"}

// A run sets its workload up at least setupRepeats times and until
// setupBudget has passed; setup_s is the median, so one slow set-up
// does not move it. The budget gives a set-up of a few milliseconds
// hundreds of samples and one of a quarter second five.
const (
	setupRepeats = 5
	setupBudget  = time.Second
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload's outcome.
type runResult struct {
	workload  string
	attempted int
	failed    int
	// expected counts deliberately broken requests answered with their
	// typed error; they are successes.
	expected int
	firstErr error
	// sloMiss is the share of requests that failed or missed the latency
	// limit (serve_mixed only).
	sloMiss float64
	metrics map[string]metric
	// detail holds printed-only figures: tail percentile, sample counts.
	detail []string
}

func (r *runResult) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *runResult) correct() bool {
	return r.attempted > 0 && r.failed == 0 && r.firstErr == nil
}

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	spanDir string
	serve   serveConfig
}

func main() {
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 2008, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	spanDir := flag.String("span-dir", "", "directory the traced run writes its spans to (empty: not written)")
	flag.Parse()
	serve, err := loadServeConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	names := workloadNames
	if *workload != "all" {
		known := false
		for _, n := range workloadNames {
			known = known || n == *workload
		}
		if !known {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		names = []string{*workload}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, spanDir: *spanDir, serve: serve}
	os.Exit(runAll(names, cfg))
}

// runAll runs the workloads in order, prints a table with one row per
// workload, and ends with the JSON result line. It returns the exit
// code: 0 only when every workload ran and verified.
func runAll(names []string, cfg runConfig) int {
	info := map[string]any{
		"perfbench": currentHost(), "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"serve_rate_per_s": cfg.serve.Rate.Value, "serve_latency_limit_ms": cfg.serve.Limit.Value,
	}
	infoLine, _ := json.Marshal(info) // a map of plain values always marshals
	fmt.Println(string(infoLine))
	var results []*runResult
	for _, name := range names {
		r := runWorkload(name, cfg)
		results = append(results, r)
		printDetail(r)
	}
	printTable(results, cfg.trace)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range results {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.attempted
		out.Failed += r.failed
		if r.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, r.firstErr)
		}
		for k, v := range r.metrics {
			if len(results) > 1 {
				k = r.workload + "/" + k
			}
			out.Metrics[k] = v
		}
	}
	if !out.Correct {
		// The verification gate: a workload that failed it gets no
		// numbers.
		out.Metrics = map[string]metric{}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func runWorkload(name string, cfg runConfig) *runResult {
	r := &runResult{workload: name, metrics: map[string]metric{}}
	if !resetPeakRSS() {
		r.detail = append(r.detail, "peak_rss_mb could not be reset: it covers the whole process")
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var err error
	if name == "serve_mixed" {
		err = runServe(r, cfg, rec)
	} else {
		err = runClosed(r, cfg, rec)
	}
	if err != nil && r.firstErr == nil {
		r.firstErr = err
	}
	if rec != nil && cfg.spanDir != "" {
		path := filepath.Join(cfg.spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, cfg.seed))
		if err := rec.writeJSONL(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
	return r
}

// timedSetup runs set-up repeatedly (see setupRepeats) and returns the
// median duration. Each set-up must build the same inputs; release
// drops all but the last one's products.
func timedSetup(setup func() error, release func()) (time.Duration, error) {
	var ds []float64
	var spent time.Duration
	for i := 0; i < setupRepeats || spent < setupBudget; i++ {
		if i > 0 && release != nil {
			release()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		spent += d
		ds = append(ds, float64(d))
	}
	return time.Duration(percentile(ds, 50)), nil
}

// printDetail prints a workload's outcome and the figures that are
// printed but not reported as metrics.
func printDetail(r *runResult) {
	status := "ok"
	if !r.correct() {
		status = "FAILED"
	}
	fmt.Printf("workload %s: %s attempted=%d failed=%d expected_errors=%d\n",
		r.workload, status, r.attempted, r.failed, r.expected)
	for _, d := range r.detail {
		fmt.Printf("  %s\n", d)
	}
}

// printTable prints the metrics with one row per workload: the
// end-to-end metrics plus fail_rate and slo_miss_frac untraced, or one
// line per per-layer metric traced (there are too many for columns).
func printTable(results []*runResult, traced bool) {
	if traced {
		for _, r := range results {
			for _, d := range perLayer {
				if m, ok := r.metrics[d.Name]; ok {
					fmt.Printf("%-13s %-32s %14.6g %s\n", r.workload, d.Name, m.Value, m.Unit)
				}
			}
		}
		return
	}
	fmt.Printf("%-13s", "workload")
	for _, d := range endToEnd {
		fmt.Printf(" %16s", d.Name+"["+d.Unit+"]")
	}
	fmt.Printf(" %12s %14s\n", "fail_rate", "slo_miss_frac")
	for _, r := range results {
		fmt.Printf("%-13s", r.workload)
		for _, d := range endToEnd {
			if m, ok := r.metrics[d.Name]; ok {
				fmt.Printf(" %16.6g", m.Value)
			} else {
				fmt.Printf(" %16s", "-")
			}
		}
		slo := "-"
		if r.workload == "serve_mixed" {
			slo = fmt.Sprintf("%.4g", r.sloMiss)
		}
		fmt.Printf(" %12.4g %14s\n", frac(float64(r.failed), float64(r.attempted)), slo)
	}
}
