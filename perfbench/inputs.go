package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/workloads"
)

// program is one generated input the analyzer sees, with the ground
// truth the generator planted in it.
type program struct {
	name    string
	sources map[string]string
	ref     plantRef
	lines   int
}

func newProgram(exe workloads.Exe, sources map[string]string) (program, error) {
	ref, err := newPlantRef(sources, exe.Plants)
	if err != nil {
		return program{}, err
	}
	return program{name: exe.Name, sources: sources, ref: ref, lines: countLines(sources)}, nil
}

func countLines(sources map[string]string) int {
	n := 0
	for _, s := range sources {
		n += strings.Count(s, "\n")
	}
	return n
}

// corpusPrograms is the paper-scale corpus (22 executables, about 99%
// unreachable filler) in a seeded order.
func corpusPrograms(seed int64) ([]program, error) {
	var out []program
	for _, spec := range workloads.PaperCorpus() {
		pkg := workloads.Generate(spec, seed)
		for _, exe := range pkg.Exes {
			p, err := newProgram(exe, pkg.SourcesFor(exe))
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// allPatterns plants one of every pattern kind.
var allPatterns = []workloads.Pattern{
	workloads.SiblingLeak, workloads.IteratorEscape, workloads.StringShare,
	workloads.InvertedLifetime, workloads.TemporaryInconsistency,
	workloads.AliasFalsePositive,
}

// seededPlants is every pattern kind in a seeded order. The generator
// hangs plant i off leaf stage i and names it after i, so the order
// decides which leaf hosts each plant and the plants' names and place
// in the source. Filler-free programs draw nothing else from the seed:
// this is what makes the seed change them.
func seededPlants(rng *rand.Rand) []workloads.Pattern {
	out := append([]workloads.Pattern(nil), allPatterns...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// denseShapes are the dense_solver programs' stage trees (stages,
// depth, fanout), each generated once on each region interface: deep,
// wide trees over the shared library with every pattern planted and no
// filler, so nearly all code is reachable. At least six stages are
// needed for every plant to be called from a leaf stage. The shapes are
// fixed rather than drawn from the seed: their costs differ threefold,
// and a seeded draw of shapes moved every metric by more than 50%
// between seeds. The two middle shapes cost about the same (about 1200
// and 1800 contexts), so the median falls inside a cluster of four
// programs, and the largest (about 4100 contexts) sets the p90.
var denseShapes = [][3]int{{6, 4, 2}, {7, 5, 2}, {8, 4, 3}, {6, 5, 3}}

// densePrograms is the dense_solver set in a seeded order. The seed
// also decides which leaf stage hosts each plant (seededPlants). In
// every shape each stage of a level has as many callers as any other,
// so every leaf has the same contexts and the cost stays the same from
// seed to seed.
func densePrograms(seed int64) ([]program, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []program
	for _, sh := range denseShapes {
		for _, iface := range []string{"apr", "rc"} {
			spec := workloads.Spec{
				Name:      fmt.Sprintf("dense-%s-%d-%d-%d", iface, sh[0], sh[1], sh[2]),
				Exes:      1,
				Stages:    sh[0],
				Depth:     sh[1],
				Fanout:    sh[2],
				Interface: iface,
				SharedLib: true,
				Plants:    seededPlants(rng),
			}
			pkg := workloads.Generate(spec, seed)
			exe := pkg.Exes[0]
			p, err := newProgram(exe, pkg.SourcesFor(exe))
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// editChunks is how many files the edited executable is split into
// (the shared library rides along as one more).
const editChunks = 8

// editProgram is the largest paper-corpus executable split into files:
// the sources the edit loop starts from, and the chunk paths that hold
// filler functions an edit can touch.
func editProgram(seed int64) (map[string]string, []string, error) {
	var best *workloads.Package
	var bestExe workloads.Exe
	for _, spec := range workloads.PaperCorpus() {
		pkg := workloads.Generate(spec, seed)
		for _, exe := range pkg.Exes {
			if best == nil || len(exe.Source) > len(bestExe.Source) {
				best, bestExe = pkg, exe
			}
		}
	}
	sources := best.SplitSourcesFor(bestExe, editChunks)
	var editable []string
	for p, src := range sources {
		if strings.HasPrefix(p, bestExe.Name+"-") && strings.Contains(src, fillerReturn) {
			editable = append(editable, p)
		}
	}
	if len(editable) == 0 {
		return nil, nil, fmt.Errorf("%s: no chunk holds a filler function", bestExe.Name)
	}
	sort.Strings(editable)
	return sources, editable, nil
}

// fillerReturn ends every straight-line generated filler function.
const fillerReturn = "    return acc;\n}"

// bodyEdit inserts one statement before the return of the k-th filler
// function in src (counted modulo the number of fillers). The edit
// changes the file's IR but no declaration, which keeps incremental
// analysis on its reuse path.
func bodyEdit(src string, k, value int) string {
	n := strings.Count(src, fillerReturn)
	k %= n
	at := 0
	for i := 0; i <= k; i++ {
		j := strings.Index(src[at:], fillerReturn)
		at += j
		if i < k {
			at += len(fillerReturn)
		}
	}
	return src[:at] + fmt.Sprintf("    acc = acc + %d;\n", value) + src[at:]
}
