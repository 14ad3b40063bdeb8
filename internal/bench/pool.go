// Experiment worker pool. Every sweep in this package decomposes into
// completely independent cells — each cell builds its own private
// sim.Engine, runs one simulated configuration, and reads nothing shared —
// so cells can execute on concurrent OS threads. The pool fans cells out
// across workers and the callers write each cell's result into a slot
// addressed by the cell's index, so assembly order (and therefore every
// table and CSV byte) is identical at any parallelism.
package bench

import (
	"runtime"
	"sync"
)

// Runner executes the package's sweeps with a configurable degree of
// cell-level parallelism. The zero Runner is valid and uses one worker
// per available CPU.
type Runner struct {
	// Parallelism is the maximum number of sweep cells simulated
	// concurrently on pool workers. 0 (or negative) means
	// runtime.GOMAXPROCS(0); 1 reproduces the historical strictly-
	// sequential execution.
	Parallelism int
	// CrossShardPct in [0,100] mixes cross-shard two-phase transactions
	// into every saturation sweep cell (the xshard sweep keeps its own
	// fixed axis). Zero leaves every cell's schedule untouched.
	CrossShardPct float64
}

// EffectiveParallelism resolves a requested parallelism to the worker
// count actually used: values <= 0 mean "one worker per available CPU"
// (runtime.GOMAXPROCS(0)). It is the single place that default lives;
// commands report the returned value so records of a run show the
// parallelism it really executed with, not the 0 sentinel.
func EffectiveParallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// workers resolves the pool worker count for n jobs.
func (r Runner) workers(n int) int {
	w := EffectiveParallelism(r.Parallelism)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEach runs job(0..n-1), at most r.workers(n) concurrently. It returns
// only when every job has finished. Jobs must be independent: each owns
// its private engine and writes only to its own index-addressed result
// slot, which is what makes output byte-identical to sequential order.
func (r Runner) forEach(n int, job func(i int)) {
	w := r.workers(n)
	if w == 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	idx := make(chan int, n)
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				job(i)
			}
		}()
	}
	wg.Wait()
}
