// Package par runs an index-addressed loop on a fixed number of goroutines,
// the pool FIB patching (internal/bgp) and contract checking (internal/rcdc)
// share: each goroutine claims chunks of one list through an atomic counter
// and writes results into slots the caller owns, by index.
package par

import (
	"sync"
	"sync/atomic"
)

// chunksPerWorker chunks per goroutine keep an expensive stretch of the
// list from idling the others at one counter step per chunk.
const chunksPerWorker = 8

// For calls body(w, i) once for every i in [0, n) on at most workers
// goroutines, the caller's among them, and returns when every call has
// returned. w in [0, workers) names the goroutine making the call, so body
// can keep per-goroutine scratch in a slice indexed by w: calls with one w
// never overlap. With one worker, or one index, the loop runs on the
// caller's goroutine in index order.
func For(n, workers int, body func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	chunk := max(1, n/(workers*chunksPerWorker))
	var next atomic.Int64
	run := func(w int) {
		for {
			hi := int(next.Add(int64(chunk)))
			lo := hi - chunk
			if lo >= n {
				return
			}
			for i := lo; i < min(hi, n); i++ {
				body(w, i)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
}
