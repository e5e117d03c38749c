package core

import (
	"context"
	"sort"

	"repro/internal/datalog"
	"repro/internal/trace"
)

// computeObjectPairsBDD runs the inconsistency computation on the
// BDD-backed Datalog engine, mirroring the paper's bddbddb rules
// (Section 5.3.2):
//
//	leq(x, x)    :- region(x).
//	leq(x, y)    :- parent(x, y).
//	leq(x, z)    :- leq(x, y), parent(y, z).
//	regionPair(x, y) :- region(x), region(y), !leq(x, y).
//	objectPair(o1, n, o2) :- regionPair(x, y), own(x, o1), own(y, o2),
//	                         access(o1, n, o2).
//
// The result is identical to the explicit backend (asserted by tests);
// the two differ only in how the relations are stored and joined.
func (a *Analysis) computeObjectPairsBDD(ctx context.Context) []ObjectPair {
	if len(a.AccessEdges) == 0 {
		return nil
	}
	// Offsets are interned into a dense domain.
	offIdx := make(map[int64]uint64)
	var offs []int64
	for _, e := range a.AccessEdges {
		if _, ok := offIdx[e.Off]; !ok {
			offIdx[e.Off] = uint64(len(offs))
			offs = append(offs, e.Off)
		}
	}

	p := datalog.NewProgramConfig(a.Opts.Solver.BDD)
	if sp := trace.SpanFromContext(ctx); sp != nil {
		p.M.OnEvent = func(kind string, nodes, capacity int) {
			sp.Event("bdd_"+kind, trace.Int("nodes", nodes), trace.Int("capacity", capacity))
		}
	}
	rels := a.declareRegionRels(p)
	a.declareObjectRels(p, &rels, len(offs))
	a.loadRegionRels(rels)
	a.loadObjectRels(rels, offIdx)
	a.solveRegionStrata(ctx, p, rels)
	// Stratum boundary: all live state is back in relations, so this is
	// a GC safe point before the (largest) verification join.
	p.CollectIfPressured()
	sctx, s3 := trace.StartSpan(ctx, "pairs.stratum:objectPair")
	p.Solve(sctx, []*datalog.Rule{objectPairRule(rels)}, 0)
	s3.End()

	// Expose the engine's final footprint and kernel counters to the
	// pipeline metrics (the pairs phase reports them as bdd_nodes /
	// datalog_tuples / bdd_cache_* keys).
	a.bddNodes = int64(p.NodeCount())
	a.bddTuples = int64(p.TupleCount())
	a.bddStats = p.M.Stats()

	return a.collectObjectPairs(rels, offs)
}

// pairRels are the relations of the three pair strata. The provenance
// recorder declares only the region half; Explainer.verifyPair only
// regionPair and the object half.
type pairRels struct {
	region, parent, leq, regionPair *datalog.Relation
	own, access, objectPair         *datalog.Relation
}

func (a *Analysis) declareRegionRels(p *datalog.Program) pairRels {
	R := p.Domain("R", uint64(len(a.Regions)))
	return pairRels{
		region:     p.Relation("region", R.At(0)),
		parent:     p.Relation("parent", R.At(0), R.At(1)),
		leq:        p.Relation("leq", R.At(0), R.At(1)),
		regionPair: p.Relation("regionPair", R.At(0), R.At(1)),
	}
}

// declareObjectRels adds the verification join's relations to rels,
// over the region domain its region strata already declared.
func (a *Analysis) declareObjectRels(p *datalog.Program, rels *pairRels, nOffs int) {
	R := rels.region.Attrs()[0].Dom
	O := p.Domain("O", uint64(len(a.Ptr.Objects)))
	N := p.Domain("N", uint64(nOffs))
	rels.own = p.Relation("own", R.At(0), O.At(0))
	rels.access = p.Relation("access", O.At(0), N.At(0), O.At(1))
	rels.objectPair = p.Relation("objectPair", O.At(0), N.At(0), O.At(1))
}

func (a *Analysis) loadRegionRels(rr pairRels) {
	for i := range a.Regions {
		rr.region.Add(uint64(i))
		if i != RootRegion {
			rr.parent.Add(uint64(i), uint64(a.Regions[i].Parent))
		}
	}
}

func (a *Analysis) loadObjectRels(or pairRels, offIdx map[int64]uint64) {
	// φ⁼: regions own themselves (as objects) plus their allocations.
	for i := 1; i < len(a.Regions); i++ {
		if a.Regions[i].Obj >= 0 {
			or.own.Add(uint64(i), uint64(a.Regions[i].Obj))
		}
	}
	// Sorted object order keeps the BDD insertion sequence (and so the
	// kernel's cache/node counters in the report) deterministic.
	objs := make([]int, 0, len(a.Owner))
	for obj := range a.Owner {
		objs = append(objs, obj)
	}
	sort.Ints(objs)
	for _, obj := range objs {
		for _, r := range a.Owner[obj] {
			or.own.Add(uint64(r), uint64(obj))
		}
	}
	// Non-region, non-allocated objects belong to the root (storage,
	// strings, malloc'ed memory) — only the ones that actually appear
	// as access targets matter.
	for _, e := range a.AccessEdges {
		if _, isRegion := a.regionOf[e.Dst]; !isRegion {
			if _, owned := a.Owner[e.Dst]; !owned {
				or.own.Add(uint64(RootRegion), uint64(e.Dst))
			}
		}
		or.access.Add(uint64(e.Src), offIdx[e.Off], uint64(e.Dst))
	}
}

// solveRegionStrata runs strata 1 and 2 — the subregion closure and
// its stratified complement.
func (a *Analysis) solveRegionStrata(ctx context.Context, p *datalog.Program, rr pairRels) {
	// Stratum 1: the subregion partial order (semi-naive, as bddbddb
	// evaluates recursive rules). Each stratum gets its own span so
	// traces show which of the three fixpoints dominates.
	sctx, s1 := trace.StartSpan(ctx, "pairs.stratum:leq")
	p.SolveSemiNaive(sctx, regionLeqRules(rr), 0)
	s1.End()
	// Stratum 2: complement (safe, stratified negation).
	sctx, s2 := trace.StartSpan(ctx, "pairs.stratum:regionPair")
	p.Solve(sctx, regionPairRules(rr), 0)
	s2.End()
}

func (a *Analysis) collectObjectPairs(or pairRels, offs []int64) []ObjectPair {
	var out []ObjectPair
	or.objectPair.Each(func(t []uint64) bool {
		e := AccessEdge{Src: int(t[0]), Off: offs[t[1]], Dst: int(t[2])}
		if p, bad := a.checkEdge(e); bad {
			out = append(out, p)
		}
		return true
	})
	sortPairs(out)
	return out
}
