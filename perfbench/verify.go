package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/workloads"
)

// canonical strips the volatile fields (wall times and per-phase
// metrics) from report JSON, leaving bytes that must be identical for
// identical inputs however and whenever they were computed.
func canonical(reportJSON []byte) ([]byte, error) {
	var m map[string]any
	if err := json.Unmarshal(reportJSON, &m); err != nil {
		return nil, fmt.Errorf("report is not JSON: %w", err)
	}
	stats, ok := m["stats"].(map[string]any)
	if !ok {
		return nil, fmt.Errorf("report has no stats object")
	}
	delete(stats, "time_ms")
	delete(stats, "phases")
	return json.Marshal(m)
}

// reportWarning is the part of a report warning the checks read.
type reportWarning struct {
	High    bool   `json:"high"`
	Message string `json:"message"`
	SrcSite string `json:"src_site"`
	DstSite string `json:"dst_site"`
}

type reportDoc struct {
	Schema   string          `json:"schema"`
	Warnings []reportWarning `json:"warnings"`
}

func parseReport(reportJSON []byte) (*reportDoc, error) {
	var r reportDoc
	if err := json.Unmarshal(reportJSON, &r); err != nil {
		return nil, fmt.Errorf("decode report: %w", err)
	}
	if r.Schema != "regionwiz/report/v1" {
		return nil, fmt.Errorf("report schema %q", r.Schema)
	}
	return &r, nil
}

// sitePos splits "file.c:12:7 (apr_palloc)" into the position a query
// takes ("file.c:12:7"), its file and its line.
func sitePos(site string) (pos, file string, line int, err error) {
	pos, _, _ = strings.Cut(site, " ")
	parts := strings.Split(pos, ":")
	if len(parts) < 2 {
		return "", "", 0, fmt.Errorf("site %q has no line", site)
	}
	line, err = strconv.Atoi(parts[1])
	if err != nil {
		return "", "", 0, fmt.Errorf("site %q: %w", site, err)
	}
	return pos, parts[0], line, nil
}

// lineSpan is a function's first and last line in its file.
type lineSpan struct {
	file        string
	first, last int
}

// funcLines finds where the named function is defined among generated
// sources: from its "void <fn>(" header to the first line that closes
// it. The generator emits every function flush left, so the header (a
// line opening a body, never a prototype) and the closing "}" are
// unambiguous.
func funcLines(sources map[string]string, fn string) (lineSpan, error) {
	header := "void " + fn + "("
	for file, src := range sources {
		lines := strings.Split(src, "\n")
		for i, l := range lines {
			if !strings.HasPrefix(l, header) || !strings.HasSuffix(l, "{") && !strings.HasSuffix(l, "{}") {
				continue
			}
			for j := i; j < len(lines); j++ {
				if strings.HasPrefix(lines[j], "}") || strings.HasSuffix(lines[j], "{}") {
					return lineSpan{file: file, first: i + 1, last: j + 1}, nil
				}
			}
		}
	}
	return lineSpan{}, fmt.Errorf("function %s not found", fn)
}

// plantRef is the generator's ground truth for one program: where each
// planted true bug lives. It comes from the generator, never from the
// analyzer.
type plantRef struct {
	trueBugs []lineSpan
	// clean programs have no plants at all and must report nothing.
	clean bool
}

func newPlantRef(sources map[string]string, plants []workloads.Plant) (plantRef, error) {
	ref := plantRef{clean: len(plants) == 0}
	for _, p := range plants {
		if !p.Pattern.TrueBug() {
			continue
		}
		ls, err := funcLines(sources, p.Func)
		if err != nil {
			return ref, err
		}
		ref.trueBugs = append(ref.trueBugs, ls)
	}
	return ref, nil
}

// check verifies a report against the ground truth: every planted true
// bug surfaces as a warning with an allocation site inside its planted
// function, and a program with no plants stays clean.
func (ref plantRef) check(reportJSON []byte) error {
	r, err := parseReport(reportJSON)
	if err != nil {
		return err
	}
	if ref.clean && len(r.Warnings) != 0 {
		return fmt.Errorf("program has no plants but %d warnings", len(r.Warnings))
	}
	for _, bug := range ref.trueBugs {
		found := false
		for _, w := range r.Warnings {
			for _, site := range []string{w.SrcSite, w.DstSite} {
				_, file, line, err := sitePos(site)
				if err != nil {
					return err
				}
				if file == bug.file && line >= bug.first && line <= bug.last {
					found = true
				}
			}
		}
		if !found {
			return fmt.Errorf("planted bug at %s:%d-%d has no warning", bug.file, bug.first, bug.last)
		}
	}
	return nil
}

// repeatCheck holds the first canonical report seen per program and
// fails any later report that differs from it.
type repeatCheck map[string][]byte

func (rc repeatCheck) check(name string, reportJSON []byte) error {
	c, err := canonical(reportJSON)
	if err != nil {
		return err
	}
	if first, ok := rc[name]; ok {
		if !bytes.Equal(first, c) {
			return fmt.Errorf("%s: report differs from the first run's", name)
		}
		return nil
	}
	rc[name] = c
	return nil
}
