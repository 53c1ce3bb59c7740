package engine

import (
	"runtime"
	"sync"
)

// WorkerCount resolves a requested parallelism level against n work
// items: non-positive means GOMAXPROCS, and the result is clamped to
// [1, n]. Every data-parallel fan-out in the repository (tokenizing, the
// similarity join's prefix sort and probe, concurrent HIT execution)
// sizes itself with this so the scheduling policy lives in one place.
func WorkerCount(requested, n int) int {
	p := requested
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Workers runs fn(w) for every w in [0, workers) concurrently and waits
// for all of them. With workers <= 1 it calls fn inline, avoiding
// goroutine overhead on the sequential path.
func Workers(workers int, fn func(w int)) {
	if workers <= 1 {
		if workers == 1 {
			fn(0)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}
