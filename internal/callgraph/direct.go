package callgraph

import (
	"sort"

	"repro/internal/ir"
)

// BuildDirect is the incremental fast path: when the program moves no
// function values through variables or memory, the vF fixpoint of
// BuildEntries is vacuous and the call graph is a single linear scan
// over CALL instructions. It reports ok=false — build nothing — when
// the precondition does not hold, and callers fall back to
// BuildEntries. The precondition is checked exactly, so for any
// program where BuildDirect succeeds its Graph is identical to
// BuildEntries' (TestBuildDirectParity pins this).
//
// The scan is what makes re-analysis after an edit cheap: instruction
// IDs shift under edits, so edges are recomputed from the relinked
// program rather than patched, but without the quadratic fixpoint the
// phase is a small fraction of a full rebuild.
func BuildDirect(prog *ir.Program, entries []string, implicit []ImplicitSpec) (*Graph, bool) {
	if implicit == nil {
		implicit = DefaultImplicitSpecs
	}
	implicitByFn := make(map[string][]int)
	for _, s := range implicit {
		implicitByFn[s.Fn] = append(implicitByFn[s.Fn], s.EntryArg)
	}

	// Precondition: a FuncOpd may appear only as a direct callee, or as
	// an extern call's argument at an implicit-spec position. Any other
	// occurrence (assigned, stored, passed to a defined function or a
	// non-registered extern slot) could seed the vF relation, and any
	// VarOpd callee could consume it — both require the full fixpoint.
	for _, in := range prog.Instrs {
		if in.Src.Kind == ir.FuncOpd || in.Base.Kind == ir.FuncOpd || in.Dst.Kind == ir.FuncOpd {
			return nil, false
		}
		if in.Op != ir.Call {
			if in.Callee.Kind == ir.FuncOpd {
				return nil, false
			}
			continue
		}
		switch in.Callee.Kind {
		case ir.FuncOpd:
		case ir.VarOpd:
			return nil, false
		}
		_, defined := prog.Funcs[in.Callee.Fn]
		for i, a := range in.Args {
			if a.Kind != ir.FuncOpd {
				continue
			}
			if defined || in.Callee.Kind != ir.FuncOpd {
				return nil, false
			}
			ok := false
			for _, argIdx := range implicitByFn[in.Callee.Fn] {
				if argIdx == i {
					ok = true
				}
			}
			if !ok {
				return nil, false
			}
		}
	}

	entry := ""
	if len(entries) > 0 {
		entry = entries[0]
	}
	g := &Graph{
		Prog:        prog,
		Entry:       entry,
		Entries:     append([]string(nil), entries...),
		Edges:       make(map[int][]string),
		ExternCalls: make(map[int][]string),
		Callers:     make(map[string][]int),
		Reachable:   make(map[string]bool),
		VF:          make(map[*ir.Var]map[string]bool),
	}
	addEdge := func(instrID int, fn string, seen map[string]bool) {
		if _, def := prog.Funcs[fn]; !def || seen[fn] {
			return
		}
		seen[fn] = true
		g.Edges[instrID] = append(g.Edges[instrID], fn)
		g.Callers[fn] = append(g.Callers[fn], instrID)
	}
	for _, in := range prog.Instrs {
		if in.Op != ir.Call || in.Callee.Kind != ir.FuncOpd {
			continue
		}
		fn, id := in.Callee.Fn, prog.InstrID(in)
		if _, defined := prog.Funcs[fn]; defined {
			seen := make(map[string]bool, 1)
			addEdge(id, fn, seen)
			continue
		}
		g.ExternCalls[id] = append(g.ExternCalls[id], fn)
		seen := make(map[string]bool)
		for _, argIdx := range implicitByFn[fn] {
			if argIdx < len(in.Args) && in.Args[argIdx].Kind == ir.FuncOpd {
				addEdge(id, in.Args[argIdx].Fn, seen)
			}
		}
		sort.Strings(g.Edges[id])
	}
	for fn := range g.Callers {
		sort.Ints(g.Callers[fn])
	}
	g.computeReachable()
	return g, true
}
