package ir

import (
	"sort"

	"repro/internal/cminor"
)

// GlobalTable holds the canonical variable of every program global,
// in sorted name order. It depends only on the declaration environment,
// so one table serves every fragment lowered against that environment
// and every program linked from them. A table is immutable: the one
// program-dependent fact about a global, whether its address is taken,
// lives in Program.AddrTaken.
type GlobalTable struct {
	vars   []*Var
	byName map[string]*Var
}

// NewGlobalTable builds the canonical globals of a checked program.
func NewGlobalTable(info *cminor.Info) *GlobalTable {
	names := make([]string, 0, len(info.Globals))
	for name := range info.Globals {
		names = append(names, name)
	}
	sort.Strings(names)
	t := &GlobalTable{vars: make([]*Var, len(names)), byName: make(map[string]*Var, len(names))}
	for i, name := range names {
		v := &Var{Name: name, Global: true, PointerLike: cminor.IsPointer(info.Globals[name].Type)}
		t.vars[i] = v
		t.byName[name] = v
	}
	return t
}

// Fragment is the lowered IR of a single file: the per-file half of
// Lower. Its function bodies are program storage — Link shares their
// Funcs, Instrs, and Vars in place — so a fragment carries no
// program-wide identity: instruction IDs and string indices are
// fragment-local (Program.InstrID and Program.StringID rebase them),
// and globals are the canonical variables of the GlobalTable it was
// lowered against. A fragment thus depends only on its own file's AST,
// the declaration environment (types, layouts, signatures), and the
// list of its functions that were lowered (LiveIn). As long as all
// three are unchanged (see cminor.DeclSignature), a fragment can be
// cached by file digest and live list and linked into any number of
// programs. Nothing mutates a fragment after LowerFile returns, so one
// fragment may be shared by concurrent links and analyses.
type Fragment struct {
	// Path is the source file the fragment was lowered from.
	Path string
	// Init holds the file's global-initializer instructions, and
	// InitVars the temporaries they use. Instr.Func and Var.Func are
	// nil here; Link clones both into the synthetic init function.
	Init     []*Instr
	InitVars []*Var
	// Funcs are the file's lowered functions in declaration order.
	// BodyVars lists every function-local variable (parameters, return
	// slots, locals, temporaries) in creation order; each knows its
	// Func.
	Funcs    []*Func
	BodyVars []*Var
	// Strings are the file's string literal sites: the first
	// InitStrings entries come from global initializers, the rest from
	// function bodies. Operand.Str indexes this slice.
	Strings     []StringLit
	InitStrings int

	// addrGlobals lists the globals whose address the file takes, once
	// per site.
	addrGlobals []*Var
	// bodyInstrs counts the instructions of Funcs.
	bodyInstrs int
}

// LowerFile lowers one checked file into a reusable fragment. info
// must cover the file (a full check, or an incremental check that
// re-checked it), and globals must come from NewGlobalTable over the
// declaration environment info shares. Only the defined functions in
// live are lowered (see LiveFuncs); a nil live lowers every one. The
// global initializers are always lowered.
func LowerFile(info *cminor.Info, globals *GlobalTable, f *cminor.File, live map[string]bool) *Fragment {
	b := &builder{
		frag:    &Fragment{Path: f.Path},
		info:    info,
		globals: globals,
		vars:    make(map[*cminor.VarObject]*Var),
	}
	// Global initializers first, mirroring Lower's historical order.
	// Initializers of names the checker did not register as globals are
	// dropped, as the single-pass Lower always did.
	b.sink = &b.frag.InitVars
	for _, d := range f.Decls {
		if vd, ok := d.(*cminor.VarDecl); ok && vd.Init != nil {
			if _, ok := info.Globals[vd.Name]; ok {
				src := b.expr(vd.Init)
				b.emit(&Instr{Op: Assign, Dst: varOpd(b.global(vd.Name)), Src: src, Pos: vd.Pos})
			}
		}
	}
	b.frag.InitStrings = len(b.frag.Strings)
	// Function bodies.
	b.sink = &b.frag.BodyVars
	for _, d := range f.Decls {
		if fd, ok := d.(*cminor.FuncDecl); ok && lowered(fd, live) {
			b.lowerFunc(fd)
		}
	}
	return b.frag
}

// Link assembles fragments (in file order) into one Program over the
// GlobalTable they were lowered against. It shares every function body
// in place and clones only the initializer segments, which it merges
// into the synthetic InitFuncName function. The numbering matches the
// historical single-pass Lower exactly: every fragment's initializer
// segment first (file order), then every fragment's function bodies —
// so reports are byte-identical whether a fragment was freshly lowered
// or replayed from a cache. A function left out of its fragment by the
// live set is neither in Funcs nor in Externs.
func Link(info *cminor.Info, globals *GlobalTable, frags []*Fragment) *Program {
	prog := &Program{
		Funcs:       make(map[string]*Func),
		Externs:     make(map[string]*cminor.FuncObject),
		Globals:     globals.byName,
		Info:        info,
		bases:       make(map[*Fragment]fragBase, len(frags)),
		addrGlobals: make(map[*Var]bool),
	}
	for name, fo := range info.Funcs {
		if fo.Decl == nil || fo.Decl.Body == nil {
			prog.Externs[name] = fo
		}
	}
	nInit, nVars, nStrings := 0, len(globals.vars), 0
	for _, fr := range frags {
		nInit += len(fr.Init)
		nVars += len(fr.InitVars) + len(fr.BodyVars)
		nStrings += len(fr.Strings)
		for _, v := range fr.addrGlobals {
			prog.addrGlobals[v] = true
		}
	}
	prog.Vars = append(make([]*Var, 0, nVars), globals.vars...)
	prog.Strings = make([]StringLit, 0, nStrings)

	// Strings: initializer literals in file order, then body literals
	// in file order — the order the single-pass Lower emitted them.
	initBase := make([]int, len(frags))
	for i, fr := range frags {
		initBase[i] = len(prog.Strings)
		prog.Strings = append(prog.Strings, fr.Strings[:fr.InitStrings]...)
	}
	nBody := 0
	for _, fr := range frags {
		prog.bases[fr] = fragBase{instr: nInit + nBody, str: len(prog.Strings) - fr.InitStrings}
		prog.Strings = append(prog.Strings, fr.Strings[fr.InitStrings:]...)
		nBody += fr.bodyInstrs
	}

	// The synthetic initializer function: clones of every fragment's
	// initializer segment, numbered 0..nInit-1.
	prog.Instrs = make([]*Instr, 0, nInit+nBody)
	if nInit > 0 {
		initFn := &Func{Name: InitFuncName, Instrs: make([]*Instr, 0, nInit)}
		for i, fr := range frags {
			temps := make(map[*Var]*Var, len(fr.InitVars))
			for _, v := range fr.InitVars {
				nv := &Var{Name: v.Name, Temp: v.Temp, Func: initFn, addrTaken: v.addrTaken, PointerLike: v.PointerLike}
				temps[v] = nv
				prog.Vars = append(prog.Vars, nv)
			}
			remap := func(o Operand) Operand {
				switch o.Kind {
				case VarOpd:
					if nv, ok := temps[o.Var]; ok {
						o.Var = nv
					}
				case StringOpd:
					o.Str += initBase[i]
				}
				return o
			}
			for _, in := range fr.Init {
				ni := &Instr{
					id: len(initFn.Instrs), Op: in.Op,
					Dst: remap(in.Dst), Src: remap(in.Src),
					Base: remap(in.Base), Off: in.Off,
					Callee: remap(in.Callee),
					Pos:    in.Pos, Func: initFn,
				}
				if len(in.Args) > 0 {
					ni.Args = make([]Operand, len(in.Args))
					for k, a := range in.Args {
						ni.Args[k] = remap(a)
					}
				}
				initFn.Instrs = append(initFn.Instrs, ni)
			}
		}
		prog.Funcs[InitFuncName] = initFn
		prog.Instrs = append(prog.Instrs, initFn.Instrs...)
	}

	// Function bodies, shared in place: file order, then declaration
	// order.
	for _, fr := range frags {
		prog.Vars = append(prog.Vars, fr.BodyVars...)
		for _, fn := range fr.Funcs {
			prog.Funcs[fn.Name] = fn
			prog.Instrs = append(prog.Instrs, fn.Instrs...)
		}
	}
	return prog
}
