package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},  // the median has 9.5 beyond it
		{20, 50}, // 10 beyond the median
		{99, 50}, // p90 would have 9.9 beyond
		{100, 90},
		{999, 90},
		{1000, 99},
		{9999, 99},
		{10000, 99.9},
	}
	for _, c := range cases {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileIsHarrellDavis(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	if got := percentile(xs, 50); math.Abs(got-3) > 1e-9 {
		t.Errorf("p50 = %v, want 3 (symmetric sample)", got)
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input")
	}
	// I_0.3(2, 5), the Beta(2, 5) CDF at 0.3, is 0.579825.
	if got := regIncBeta(0.3, 2, 5); math.Abs(got-0.579825) > 1e-9 {
		t.Errorf("I_0.3(2,5) = %v, want 0.579825", got)
	}
	var u []float64
	for i := 0; i < 2001; i++ {
		u = append(u, float64(i)/2000)
	}
	for _, p := range []float64{10, 50, 90, 99} {
		if got := percentile(u, p); math.Abs(got-p/100) > 1e-3 {
			t.Errorf("p%v of uniform [0,1] = %v", p, got)
		}
	}
	// Two clusters with the median between them: the estimate sits
	// between the clusters instead of on either one's extreme.
	var two []float64
	for i := 0; i < 50; i++ {
		two = append(two, 10+float64(i%5)*0.1, 20+float64(i%5)*0.1)
	}
	if got := percentile(two, 50); got < 14 || got > 16 {
		t.Errorf("median of two equal clusters = %v, want about 15", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Errorf("percentile of nothing should be NaN")
	}
}

func TestFailRateCountsExpected422AsSuccess(t *testing.T) {
	var tl tally
	tl.add(classifyHTTP(200, "", "", true))            // verified report
	tl.add(classifyHTTP(422, "parse", "parse", false)) // broken edit, typed as asked
	tl.add(classifyHTTP(422, "parse", "parse", false))
	tl.add(classifyHTTP(200, "", "", false))              // report failed verification
	tl.add(classifyHTTP(422, "parse", "", false))         // a valid request must not 422
	tl.add(classifyHTTP(500, "internal", "parse", false)) // wrong failure for a broken edit
	tl.add(classifyHTTP(200, "", "parse", true))          // a broken edit must not succeed
	tl.add(classifyHTTP(422, "resolve", "parse", false))  // wrong kind
	if tl.attempted != 8 || tl.expectedErrors != 2 || tl.failures != 5 {
		t.Fatalf("tally = %+v, want 8 attempted, 2 expected errors, 5 failures", tl)
	}
	if got := tl.failRate(); got != 5.0/8 {
		t.Errorf("fail rate = %v, want %v", got, 5.0/8)
	}
	var clean tally
	clean.add(okResult)
	clean.add(okExpectedError)
	if clean.failRate() != 0 {
		t.Errorf("expected errors counted as failures: %v", clean.failRate())
	}
}

// TestMetricsMatchBenchmarkJSON keeps the declared metrics and
// BENCHMARK.json in step: same names, units and directions, in order.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside this directory:", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestServeConfigLoads(t *testing.T) {
	cfg, err := loadServeConfig()
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{classCold: true, classRepeat: true, classDelta: true,
		classQuery: true, classExplain: true, classBDD: true, classBroken: true}
	seen := map[string]bool{}
	for _, c := range cfg.Classes {
		if !known[c] || seen[c] {
			t.Errorf("design.json names class %q twice or an unknown class", c)
		}
		seen[c] = true
	}
	if len(seen) != len(known) {
		t.Errorf("design.json names %d of the %d request classes", len(seen), len(known))
	}
}
