package core

import "sync"

// parallelFor runs fn(s, i) for i in [0, n) across the given number of
// worker goroutines. Work is dealt in contiguous chunks to keep per-item
// overhead low; fn must be safe to call concurrently for distinct i.
//
// Every worker calls newScratch once, when it starts, and hands the result to
// each fn call it makes. The scratch is owned by that one goroutine for the
// whole call, so fn may overwrite it without locking: the hot passes keep
// their dense accumulators and candidate buffers there (see instScratch and
// relScratch) instead of allocating maps per item. Scratch is allocated
// afresh per parallelFor call, i.e. once per pass, and dropped when the call
// returns.
//
// The paper's implementation was single-threaded and IO-bound on an SSD
// (Section 5.2); our ontologies are memory-resident, so the per-instance
// equality computations parallelize trivially and this substitutes for the
// paper's fast-storage requirement.
func parallelFor[S any](n, workers int, newScratch func() S, fn func(s S, i int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		s := newScratch()
		for i := 0; i < n; i++ {
			fn(s, i)
		}
		return
	}
	const chunk = 64
	var next int
	var mu sync.Mutex
	take := func() (int, int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n {
			return 0, 0, false
		}
		lo := next
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		next = hi
		return lo, hi, true
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s := newScratch()
			for {
				lo, hi, ok := take()
				if !ok {
					return
				}
				for i := lo; i < hi; i++ {
					fn(s, i)
				}
			}
		}()
	}
	wg.Wait()
}

// noScratch is the newScratch of passes that need no per-worker state.
func noScratch() struct{} { return struct{}{} }
