package datalog

import "repro/internal/bdd"

// Kernel lifecycle: the datalog layer is a bdd kernel client, so it
// declares its roots. A program's live set at a safe point is exactly
// the contents of its relations plus the cached rename apparatus
// (relation.go) — everything else the kernel holds is operation
// intermediates that no future call can reach. Solver fixpoints add
// their semi-naive deltas for the duration of a round and release them
// at the round boundary by simply not pinning the previous round's
// deltas again.

// pinRoots pins every node the program can reach again — relation
// contents, the rename equality/cube cache, and extra — and returns
// the matching release. Pin order is irrelevant (marking is
// order-independent), so ranging over maps here is deterministic in
// effect.
func (p *Program) pinRoots(extra []bdd.Node) (release func()) {
	m := p.M
	pinned := make([]bdd.Node, 0, len(p.rels)+2*len(p.renames)+len(extra))
	pin := func(n bdd.Node) {
		m.Ref(n)
		pinned = append(pinned, n)
	}
	for _, r := range p.rels {
		pin(r.node)
	}
	for _, ops := range p.renames {
		pin(ops.eq)
		pin(ops.cube)
	}
	for _, n := range extra {
		pin(n)
	}
	return func() {
		for _, n := range pinned {
			m.Deref(n)
		}
	}
}

// CollectIfPressured answers kernel GC pressure at a program safe
// point: it pins the program's roots (plus extra nodes the caller
// still needs, e.g. in-flight deltas), collects, and releases. It
// reports whether a collection ran. Callers must not hold any other
// un-pinned node across this call.
func (p *Program) CollectIfPressured(extra ...bdd.Node) bool {
	if !p.M.GCPressure() {
		return false
	}
	release := p.pinRoots(extra)
	p.M.Collect()
	release()
	return true
}

// collectAfterRound is the solver-internal safe point at a fixpoint
// round boundary: the live set is the relations plus the current
// deltas; the previous round's deltas and intermediates are garbage.
func (p *Program) collectAfterRound(delta map[*Relation]bdd.Node) {
	p.collectMidRound(delta)
}

// collectMidRound is the solver-internal safe point between rule
// applications inside a fixpoint round. The live set is the relations
// plus every in-flight delta map — the round's input deltas and the
// next-round deltas under construction. Rule intermediates (the
// join/projection chain inside derive) are dead between rules, and
// they are where the kernel's node peak comes from, so answering
// pressure here rather than only at round boundaries is what lets GC
// actually lower the peak.
func (p *Program) collectMidRound(deltas ...map[*Relation]bdd.Node) {
	if !p.M.GCPressure() {
		return
	}
	var extra []bdd.Node
	for _, dm := range deltas {
		for _, d := range dm {
			extra = append(extra, d)
		}
	}
	p.CollectIfPressured(extra...)
}

// deriveSafePoint answers GC pressure between operations inside a rule
// derivation. live lists the derivation's in-flight intermediates (the
// accumulator and any constraint under construction); the enclosing
// fixpoint's delta maps — live in the caller across the derive call —
// are registered in p.fixpointRoots and pinned too. The kernel's node
// peak forms inside a single rule's join chain, so this is the safe
// point that lets GC actually lower it.
func (p *Program) deriveSafePoint(live ...bdd.Node) {
	if !p.M.GCPressure() {
		return
	}
	extra := make([]bdd.Node, 0, len(live)+8)
	extra = append(extra, live...)
	for _, dm := range p.fixpointRoots {
		for _, d := range dm {
			extra = append(extra, d)
		}
	}
	p.CollectIfPressured(extra...)
}
