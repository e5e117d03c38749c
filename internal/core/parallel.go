package core

import "sync"

// parallelFor runs fn(i) for every i in [0, n), fanning out over
// `workers` goroutines when workers > 1 and n > 1, and inline
// otherwise. Work is handed out in contiguous chunks so neighboring
// iterations (which usually touch neighboring data) stay on one
// worker. fn must only write to per-index slots; callers get
// determinism by merging those slots in index order afterwards. A
// panic in fn is re-raised on the calling goroutine once every worker
// has returned, so callers' recovers see it.
func parallelFor(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	var workerPanic any
	var panicOnce sync.Once
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { workerPanic = r })
				}
			}()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
	if workerPanic != nil {
		panic(workerPanic)
	}
}
