package cminor

import "sync"

// CheckParallel is Check with pass 4 (function bodies) sharded per
// file across a bounded worker pool. It returns exactly what Check
// returns — same Info contents, same errors in the same order — for
// every input; parallelism is an implementation detail that must never
// change answers.
//
// The declaration passes (1-3) stay sequential: they build the shared
// environment and are cheap. Body checking is embarrassingly parallel
// *provided* bodies only read that environment, which is true except
// for three C accommodations that grow it mid-body:
//
//   - implicit function declarations (a call to an undeclared name),
//   - the undeclared-identifier courtesy global,
//   - struct/enum types defined or first referenced inside a body.
//
// Inline definitions are detected up front (HasBodyTypeDefs) and the
// growth cases after the fact: each shard checks against copies of the
// five name maps, and any shard whose copies grew — or that reported
// an error, since the sequential error list interleaves with
// environment growth — discards the entire sharded attempt in favor of
// a plain sequential Check. Analysis inputs hit the fallback rarely
// (they are usually error-free and fully declared), and the fallback
// is bit-for-bit the sequential result by construction.
//
// The per-AST-node fact maps (Types, Uses, Fields, Sizeofs, FuncInfo)
// key on nodes owned by exactly one file, so merging the shards in
// file order reproduces the sequential maps exactly.
func CheckParallel(workers int, files ...*File) *Info {
	if workers <= 1 || len(files) <= 1 {
		return Check(files...)
	}
	for _, f := range files {
		if HasBodyTypeDefs(f) {
			return Check(files...)
		}
	}
	base := newChecker()
	base.declPasses(files)
	if len(base.info.Errors) != 0 {
		// Declaration errors can interleave with body errors in the
		// sequential list; don't try to reproduce that order piecewise.
		return Check(files...)
	}

	shards := make([]*checker, len(files))
	if workers > len(files) {
		workers = len(files)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	var shardPanic any
	var panicOnce sync.Once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				// Carry a shard's panic to the caller (re-raised after
				// Wait), and keep draining so the sender never blocks.
				if r := recover(); r != nil {
					panicOnce.Do(func() { shardPanic = r })
					for range next {
					}
				}
			}()
			for i := range next {
				sc := &checker{
					info: &Info{
						Types:    make(map[Expr]Type),
						Uses:     make(map[*Ident]interface{}),
						Fields:   make(map[*FieldAccess]FieldInfo),
						Structs:  copyStrMap(base.info.Structs),
						Typedefs: copyStrMap(base.info.Typedefs),
						Funcs:    copyStrMap(base.info.Funcs),
						Globals:  copyStrMap(base.info.Globals),
						Enums:    copyStrMap(base.info.Enums),
						FuncInfo: make(map[*FuncDecl]*FuncInfo),
						Sizeofs:  make(map[Expr]int64),
					},
					laying: make(map[string]bool),
				}
				sc.bodyPass(files[i : i+1])
				shards[i] = sc
			}
		}()
	}
	for i := range files {
		next <- i
	}
	close(next)
	wg.Wait()
	if shardPanic != nil {
		panic(shardPanic)
	}

	for _, sc := range shards {
		if len(sc.info.Errors) != 0 || shardGrewEnv(base.info, sc.info) {
			return Check(files...)
		}
	}
	for _, sc := range shards {
		for k, v := range sc.info.Types {
			base.info.Types[k] = v
		}
		for k, v := range sc.info.Uses {
			base.info.Uses[k] = v
		}
		for k, v := range sc.info.Fields {
			base.info.Fields[k] = v
		}
		for k, v := range sc.info.Sizeofs {
			base.info.Sizeofs[k] = v
		}
		for k, v := range sc.info.FuncInfo {
			base.info.FuncInfo[k] = v
		}
	}
	return base.info
}

// shardGrewEnv reports whether body checking added any name to the
// shard's environment copies: an implicit function, a courtesy global,
// or a struct tag first referenced inside a body. Those writes would
// have been visible to *later* files in the sequential order, so the
// independent shards cannot be trusted and the caller re-checks
// sequentially.
func shardGrewEnv(base, shard *Info) bool {
	return len(shard.Structs) != len(base.Structs) ||
		len(shard.Typedefs) != len(base.Typedefs) ||
		len(shard.Funcs) != len(base.Funcs) ||
		len(shard.Globals) != len(base.Globals) ||
		len(shard.Enums) != len(base.Enums)
}
