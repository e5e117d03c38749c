package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// querySites resolves the fixture's single warning to its allocation
// site pair via a direct core run over the same sources.
func querySites(t *testing.T, sources map[string]string) (src, dst string) {
	t.Helper()
	a, err := core.AnalyzeSource(core.Options{}, sources)
	if err != nil {
		t.Fatal(err)
	}
	sites := a.PairSites()
	if len(sites) == 0 {
		t.Fatal("fixture reports no warnings")
	}
	return sites[0].Src.String(), sites[0].Dst.String()
}

// TestServiceQuery covers the demand pair-query path against a cached
// result: the positive verdict, the consistent reverse probe, the
// snapshot-gone and bad-input failure modes, and the query counters.
func TestServiceQuery(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()

	sources := sourcesFor(0)
	src, dst := querySites(t, sources)
	res, err := s.Analyze(ctx, core.Options{}, sources)
	if err != nil {
		t.Fatal(err)
	}

	ans, err := s.Query(ctx, res.Key, src, dst)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if !ans.Answer.Inconsistent {
		t.Errorf("query %s -> %s consistent but the report warns", src, dst)
	}
	rev, err := s.Query(ctx, res.Key, dst, src)
	if err != nil {
		t.Fatalf("reverse query: %v", err)
	}
	if rev.Answer.Inconsistent {
		t.Error("reverse probe inconsistent; the report has no such warning")
	}

	var aerr *core.Error
	if _, err := s.Query(ctx, strings.Repeat("0", 64), src, dst); !errors.As(err, &aerr) || aerr.Kind != core.ErrSnapshotGone {
		t.Errorf("unknown key error = %v, want snapshot-gone kind", err)
	}
	if _, err := s.Query(ctx, res.Key, "prog0.c:9999", dst); !errors.As(err, &aerr) || aerr.Kind != core.ErrResolve {
		t.Errorf("unknown site error = %v, want resolve kind", err)
	}
	if _, err := s.Query(ctx, res.Key, "nonsense", dst); !errors.As(err, &aerr) || aerr.Kind != core.ErrConfig {
		t.Errorf("malformed site error = %v, want config kind", err)
	}

	st := s.Stats()
	// The two verdicts count; the failed lookups count as requests
	// too (unknown key never reached a cached analysis but is still a
	// request; it fails before the verdict).
	if st.QueryRequests < 2 {
		t.Errorf("query_requests = %d, want >= 2", st.QueryRequests)
	}
	if st.QueryInconsistent != 1 {
		t.Errorf("query_inconsistent = %d, want 1", st.QueryInconsistent)
	}
	if st.Histograms["query"].Count == 0 {
		t.Error("query histogram has no observations")
	}
}

// TestHTTPQuery is the /v1/query endpoint round-trip plus its status
// mapping and metrics.
func TestHTTPQuery(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	sources := sourcesFor(0)
	src, dst := querySites(t, sources)
	resp, data := postAnalyze(t, srv, analyzeBody(t, sources, RequestOptions{}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d %s", resp.StatusCode, data)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatal(err)
	}

	get := func(url string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	resp, data = get(srv.URL + "/v1/query?key=" + ar.Key + "&src=" + src + "&dst=" + dst)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, data)
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Schema != core.QuerySchemaV1 || qr.Key != ar.Key {
		t.Errorf("schema/key = %q/%q", qr.Schema, qr.Key)
	}
	if qr.Answer == nil || !qr.Answer.Inconsistent {
		t.Fatalf("answer = %+v, want inconsistent", qr.Answer)
	}

	for _, tc := range []struct {
		name string
		url  string
		want int
	}{
		{"unknown key", srv.URL + "/v1/query?key=" + strings.Repeat("0", 64) + "&src=" + src + "&dst=" + dst, http.StatusConflict},
		{"unknown site", srv.URL + "/v1/query?key=" + ar.Key + "&src=prog0.c:9999&dst=" + dst, http.StatusUnprocessableEntity},
		{"malformed site", srv.URL + "/v1/query?key=" + ar.Key + "&src=nonsense&dst=" + dst, http.StatusBadRequest},
		{"missing params", srv.URL + "/v1/query?key=" + ar.Key, http.StatusBadRequest},
	} {
		if resp, data = get(tc.url); resp.StatusCode != tc.want {
			t.Errorf("%s: %d (want %d) %s", tc.name, resp.StatusCode, tc.want, data)
		}
	}
	if resp, err := http.Post(srv.URL+"/v1/query", "text/plain", nil); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST: %d, want 405", resp.StatusCode)
	}

	resp, data = get(srv.URL + "/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(data)
	for _, want := range []string{
		"regionwizd_query_requests_total",
		"regionwizd_query_inconsistent_total 1",
		"regionwizd_query_duration_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestWireThrottleOptions: the new wire options must round-trip into
// core options and reject unknown enum spellings.
func TestWireThrottleOptions(t *testing.T) {
	opts, err := RequestOptions{ContextPolicy: "origin", PtsLimit: 3}.ToOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opts.ContextPolicy != core.PolicyOrigin || opts.Solver.PtsLimit != 3 {
		t.Errorf("wire options did not carry: policy=%q pts_limit=%d", opts.ContextPolicy, opts.Solver.PtsLimit)
	}
	if _, err := (RequestOptions{ContextPolicy: "2cfa"}).ToOptions(); err == nil {
		t.Error("unknown context_policy accepted")
	}
}
