package lattice

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"binopt/internal/option"
)

// PriceBatch prices every option in opts and returns the values in the
// same order. workers limits the number of goroutines; workers <= 0 uses
// GOMAXPROCS.
//
// Work is dispatched in quad groups: four options share one interleaved
// backward sweep (the QuadPlan), and a trailing group of one to three
// runs through the same plan with its unused lanes mirrored. Lanes are
// grouped by right and style (see laneOrder) so put lanes share sweeps
// and the zero-cone trim and exercise retirement apply to mixed traffic
// too.
// Each worker owns one reusable QuadPlan, so a steady batch allocates
// nothing per group. Results are bit-identical to pricing each option
// alone — the quad lanes run the scalar reference's exact operation
// sequence and lanes are independent — so parallelism, grouping and
// ordering never change the numbers, only the wall clock.
//
// On the first error the dispatcher stops handing out new groups and the
// workers drain the remainder without pricing it: a doomed batch fails
// fast instead of burning cores on work whose results will be discarded.
func (e *Engine) PriceBatch(opts []option.Option, workers int) ([]float64, error) {
	out, _, err := e.priceBatch(opts, workers)
	return out, err
}

// priceBatch additionally reports how many groups were actually priced
// (attempted), which the early-stop regression test pins.
func (e *Engine) priceBatch(opts []option.Option, workers int) ([]float64, int64, error) {
	out := make([]float64, len(opts))
	if len(opts) == 0 {
		return out, 0, nil
	}
	order := laneOrder(opts)
	groups := (len(opts) + 3) / 4
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > groups {
		workers = groups
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		failed   atomic.Bool
		priced   atomic.Int64
	)
	stop := make(chan struct{})
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			failed.Store(true)
			close(stop)
		}
		mu.Unlock()
	}

	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var qp *QuadPlan
			var lanes [4]option.Option
			for g := range next {
				if failed.Load() {
					continue // drain doomed work without pricing it
				}
				priced.Add(1)
				idx := order[g*4 : min(g*4+4, len(order))]
				for j, i := range idx {
					lanes[j] = opts[i]
				}
				if qp == nil {
					qp = e.NewQuadPlan()
				}
				lane, err := qp.load(lanes[:len(idx)])
				if err != nil {
					fail(fmt.Errorf("lattice: option %d: %w", idx[lane], err))
					continue
				}
				res := qp.Exec()
				for j, i := range idx {
					out[i] = res[j]
				}
			}
		}()
	}

feed:
	for g := 0; g < groups; g++ {
		select {
		case next <- g:
		case <-stop:
			break feed
		}
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, priced.Load(), firstErr
	}
	return out, priced.Load(), nil
}

// laneOrder returns the indices of opts in a stable order by right and
// style: American puts, European puts, American calls, European calls.
// Cutting quads from this order keeps a call lane from lifting a put
// quad's zero-cone bound to the full triangle, an American call from
// holding a put quad's exercise work live, and lets all-European quads
// skip the ladder for the whole sweep.
func laneOrder(opts []option.Option) []int {
	rank := func(o option.Option) int {
		r := 0
		if o.Right != option.Put {
			r += 2
		}
		if o.Style != option.American {
			r++
		}
		return r
	}
	order := make([]int, 0, len(opts))
	for r := 0; r < 4; r++ {
		for i, o := range opts {
			if rank(o) == r {
				order = append(order, i)
			}
		}
	}
	return order
}
