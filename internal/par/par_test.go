package par

import (
	"sync/atomic"
	"testing"
)

// TestForCallsEveryIndexOnce drives For from several goroutines at once:
// every index is visited exactly once, by a worker in range, and no two
// calls with one worker number overlap — what lets callers keep scratch
// per worker.
func TestForCallsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {7, 1}, {7, 0}, {5, 16}, {100, 3}, {2008, 8},
	} {
		hits := make([]atomic.Int32, tc.n)
		busy := make([]atomic.Bool, max(1, tc.workers))
		For(tc.n, tc.workers, func(w, i int) {
			if w < 0 || w >= len(busy) {
				t.Errorf("n=%d workers=%d: worker %d out of range", tc.n, tc.workers, w)
				return
			}
			if busy[w].Swap(true) {
				t.Errorf("n=%d workers=%d: two calls on worker %d at once", tc.n, tc.workers, w)
			}
			hits[i].Add(1)
			busy[w].Store(false)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d workers=%d: index %d visited %d times", tc.n, tc.workers, i, got)
			}
		}
	}
}

// TestForSingleWorkerRunsInOrder: one worker is the plain loop, on the
// caller's goroutine, in index order.
func TestForSingleWorkerRunsInOrder(t *testing.T) {
	var got []int
	For(5, 1, func(w, i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("order %v, want ascending", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("visited %d indices, want 5", len(got))
	}
}
