package regionwiz

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const quickstartSrc = `
typedef struct region_t region_t;
extern region_t *rnew(region_t *parent);
extern void *ralloc(region_t *r);

struct conn_t { int fd; };
struct req_t { struct conn_t *connection; };

int main(void) {
    region_t *r; region_t *subr;
    struct conn_t *conn; struct req_t *req;
    r = rnew(NULL);
    conn = ralloc(r);
    subr = rnew(NULL);   /* BUG: sibling */
    req = ralloc(subr);
    req->connection = conn;
    return 0;
}
`

func TestAnalyzePublicAPI(t *testing.T) {
	report, err := Analyze(Options{}, map[string]string{"q.c": quickstartSrc})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Warnings) != 1 || report.Stats.High != 1 {
		t.Fatalf("facade analyze: %s", report)
	}
	if !strings.Contains(report.String(), "HIGH") {
		t.Fatal("report rendering lost the rank")
	}
}

func TestAnalyzeSourceExposesAnalysis(t *testing.T) {
	a, err := AnalyzeSource(Options{}, map[string]string{"q.c": quickstartSrc})
	if err != nil {
		t.Fatal(err)
	}
	if a.Report == nil || a.Prog == nil || a.Graph == nil {
		t.Fatal("analysis state incomplete")
	}
	if a.RegionCount() != 2 {
		t.Fatalf("R = %d, want 2", a.RegionCount())
	}
	// The Definition 4.1 correlation is exposed and inconsistent here.
	if a.Correlation().Consistent() {
		t.Fatal("correlation should be inconsistent")
	}
}

func TestAnalyzeFilesFromDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.c")
	if err := os.WriteFile(path, []byte(quickstartSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeFiles(Options{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Report.Warnings) != 1 {
		t.Fatalf("file analyze: %s", a.Report)
	}
	// Positions reference the on-disk path.
	if !strings.Contains(a.Report.Warnings[0].Message, "prog.c") {
		t.Fatalf("warning does not cite the file: %s", a.Report.Warnings[0].Message)
	}
}

func TestAnalyzeFilesMissingFile(t *testing.T) {
	if _, err := AnalyzeFiles(Options{}, "/does/not/exist.c"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestMergedAPIsAcceptBothInterfaces(t *testing.T) {
	src := `
typedef struct region_t region_t;
typedef struct apr_pool_t apr_pool_t;
extern region_t *rnew(region_t *parent);
extern void *ralloc(region_t *r);
extern long apr_pool_create(apr_pool_t **newp, apr_pool_t *parent);
extern void *apr_palloc(apr_pool_t *p, unsigned long n);
int main(void) {
    region_t *r;
    apr_pool_t *p;
    void *a; void *b;
    r = rnew(NULL);
    apr_pool_create(&p, NULL);
    a = ralloc(r);
    b = apr_palloc(p, 8);
    return 0;
}`
	a, err := AnalyzeSource(Options{API: MergeAPIs(APRPools(), RCRegions())},
		map[string]string{"mixed.c": src})
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.Stats.R != 2 || a.Report.Stats.H != 2 {
		t.Fatalf("mixed interfaces: R=%d H=%d, want 2/2", a.Report.Stats.R, a.Report.Stats.H)
	}
}

func TestBackendsExposedAndAgree(t *testing.T) {
	for _, be := range []Backend{ExplicitBackend, BDDBackend} {
		report, err := Analyze(Options{Solver: SolverOptions{Backend: be}}, map[string]string{"q.c": quickstartSrc})
		if err != nil {
			t.Fatal(err)
		}
		if len(report.Warnings) != 1 {
			t.Fatalf("backend %v: %d warnings", be, len(report.Warnings))
		}
	}
}

func TestOpenProgramViaFacade(t *testing.T) {
	lib := `
typedef struct apr_pool_t apr_pool_t;
extern long apr_pool_create(apr_pool_t **newp, apr_pool_t *parent);
extern void *apr_palloc(apr_pool_t *p, unsigned long n);
struct holder { void *data; };
void store_in_subpool(apr_pool_t *pool) {
    apr_pool_t *sub;
    struct holder *h;
    void *d;
    apr_pool_create(&sub, pool);
    h = apr_palloc(pool, 16);
    d = apr_palloc(sub, 16);
    h->data = d;
}`
	a, err := AnalyzeSource(Options{Entries: []string{"store_in_subpool"}},
		map[string]string{"lib.c": lib})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Report.Warnings) == 0 {
		t.Fatal("library-mode analysis missed the inconsistency")
	}
}
