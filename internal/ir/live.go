package ir

import "repro/internal/cminor"

// LiveFuncs returns the functions defined in files that lowering must
// keep for a call graph rooted at entries: a conservative superset of
// callgraph.Reachable (the paper's main-reachability pruning, §5.1,
// moved in front of lowering). It is the closure, from the defined
// entries and from every global initializer, over the names of defined
// functions that appear in the bodies of live functions — called or
// address-taken alike. Every call-graph edge targets a function value
// that some lowered instruction names, so the call graph of the pruned
// program reaches only live functions.
//
// Only the ASTs are read. Any identifier spelled like a defined
// function counts as a reference, so a local that shadows a function
// name over-approximates, which is still sound; the checker's use
// table is not consulted because an incremental check holds it only
// for the re-checked files.
func LiveFuncs(files []*cminor.File, entries []string) map[string]bool {
	bodies := make(map[string][]*cminor.Block)
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*cminor.FuncDecl); ok && fd.Body != nil {
				bodies[fd.Name] = append(bodies[fd.Name], fd.Body)
			}
		}
	}
	live := make(map[string]bool)
	var work []string
	mark := func(name string) {
		if _, ok := bodies[name]; ok && !live[name] {
			live[name] = true
			work = append(work, name)
		}
	}
	ref := func(id *cminor.Ident) { mark(id.Name) }
	for _, e := range entries {
		mark(e)
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if vd, ok := d.(*cminor.VarDecl); ok && vd.Init != nil {
				cminor.ExprIdents(vd.Init, ref)
			}
		}
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		for _, body := range bodies[fn] {
			cminor.StmtIdents(body, ref)
		}
	}
	return live
}

// LiveIn lists the functions of f that LowerFile lowers under live, in
// declaration order: every defined function when live is nil. The list
// is, with the file's content and the declaration environment, all a
// fragment depends on, so snapshots key fragment reuse on it.
func LiveIn(f *cminor.File, live map[string]bool) []string {
	var out []string
	for _, d := range f.Decls {
		if fd, ok := d.(*cminor.FuncDecl); ok && lowered(fd, live) {
			out = append(out, fd.Name)
		}
	}
	return out
}

// lowered reports whether LowerFile lowers fd under live.
func lowered(fd *cminor.FuncDecl, live map[string]bool) bool {
	return fd.Body != nil && (live == nil || live[fd.Name])
}
