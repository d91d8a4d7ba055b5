// Package parallel provides the small concurrency substrate the pipeline
// is parallelised with: a bounded worker pool over a pull source of
// unknown length whose results come back in pull order (MapSource), and
// a bounded-channel stage pipeline (Pipeline).
//
// Both primitives are deterministic by construction: MapSource returns
// results indexed exactly like its pulls and, on failure, reports the
// error of the LOWEST failing index (the error the sequential loop would
// have hit first); Pipeline runs every stage as a single goroutine over a
// FIFO channel, so items traverse stages strictly in order. MapSource
// runs the same worker body at every worker count, so one worker gives
// the sequential result through the code path that many workers take.
//
// Both take an *obs.ParallelStats instrument block; nil disables it and
// keeps every hot loop on the uninstrumented path.
package parallel

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Workers resolves a worker-count request: values >= 1 are returned as
// given, anything else (0, negative) resolves to runtime.NumCPU().
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.NumCPU()
}

// MapSource applies fn to every item next yields, on a pool of `workers`
// goroutines (resolved via Workers), and returns the results indexed in
// pull order. next is pulled serially (each call guarded by an internal
// lock, so sources need no locking of their own) and returns io.EOF
// after the last item. At most `workers` items are checked out — pulled
// but not yet mapped — at any moment, so a source that materialises
// state per item (e.g. a decoded video clip) is bounded to worker-count
// live items instead of the whole stream.
//
// On failure the remaining items are abandoned as soon as possible and
// the error of the lowest failing index is returned — whether it came
// from next or from fn — which is the error the sequential loop would
// have hit first. After next returns an error the source is not pulled
// again. st, when non-nil, counts the items handed to fn and the worker
// high-water mark.
func MapSource[T, R any](st *obs.ParallelStats, workers int, next func() (T, error), fn func(i int, item T) (R, error)) ([]R, error) {
	w := Workers(workers)
	if st != nil {
		st.Workers.Max(int64(w))
	}

	var (
		mu     sync.Mutex // guards next, idx, out growth/stores and done
		idx    int
		out    []R
		done   bool        // source exhausted or errored; stop pulling
		stop   atomic.Bool // set once any worker fails
		errIdx = -1
		firstE error
		wg     sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if errIdx < 0 || i < errIdx {
			errIdx, firstE = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				mu.Lock()
				if done {
					mu.Unlock()
					return
				}
				item, err := next()
				if err == io.EOF {
					done = true //slj:sync-ok guarded by mu
					mu.Unlock()
					return
				}
				i := idx
				if err != nil {
					done = true //slj:sync-ok guarded by mu
					mu.Unlock()
					fail(i, err)
					return
				}
				idx++ //slj:sync-ok guarded by mu
				var zero R
				out = append(out, zero) //slj:sync-ok guarded by mu; reserves slot i, len(out) == idx
				mu.Unlock()
				if st != nil {
					st.Items.Inc()
				}
				r, err := fn(i, item)
				if err != nil {
					fail(i, err)
					return
				}
				mu.Lock()
				out[i] = r
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if errIdx >= 0 {
		return nil, firstE
	}
	return out, nil
}

// token carries one item through a Pipeline together with its index.
type token[T any] struct {
	i int
	v T
}

// Pipeline streams items through a chain of stages connected by bounded
// channels of capacity `bound` (values < 1 are clamped to 1). Every stage
// runs as ONE goroutine applying its function in item order, so stage k
// can work on item i while stage k-1 is already on item i+1 — the stages
// overlap in time, memory in flight is bounded by bound*len(stages)
// items, and the output order (and therefore the result) is deterministic.
//
// On a stage error the pipeline drains and the error of the lowest item
// index that failed in the EARLIEST stage to touch it is returned — the
// error a sequential stage-by-stage loop would have hit first. The
// results slice is still returned alongside the error: items that
// traversed every stage before the failure keep their slot (items at or
// past the failing index, and the failing item itself, are zero values).
// Callers whose stage outputs own resources — pooled buffers, say —
// must walk the partial results and release them; callers that only
// want the values should ignore the slice when err != nil. st, when
// non-nil, records the stage count as the worker high-water mark, the
// deepest stage backlog and the time stages spend starved of input.
func Pipeline[T any](st *obs.ParallelStats, bound int, items []T, stages ...func(i int, v T) (T, error)) ([]T, error) {
	if len(stages) == 0 || len(items) == 0 {
		out := make([]T, len(items))
		copy(out, items)
		return out, nil
	}
	if bound < 1 {
		bound = 1
	}

	var (
		mu     sync.Mutex
		errIdx = -1
		pipErr error
	)
	fail := func(i int, err error) {
		mu.Lock()
		if errIdx < 0 || i < errIdx {
			errIdx, pipErr = i, err
		}
		mu.Unlock()
	}

	// Source feeds the first channel.
	source := make(chan token[T], bound)
	go func() {
		defer close(source)
		for i, v := range items {
			source <- token[T]{i, v}
		}
	}()
	in := source

	// One goroutine per stage. A stage that sees an item index at or
	// beyond a recorded error index skips the work (the result can no
	// longer matter) but keeps draining so upstream stages never block.
	// With st set the receive is routed through recv (stall attribution)
	// and the input backlog's high-water mark is kept; neither changes
	// item order or stage behaviour.
	if st != nil {
		st.Workers.Max(int64(len(stages)))
	}
	for _, stage := range stages {
		stage := stage
		src := in
		dst := make(chan token[T], bound)
		go func() {
			defer close(dst)
			for {
				var t token[T]
				var ok bool
				if st != nil {
					st.QueueDepth.Max(int64(len(src)))
					t, ok = recv(src, st)
				} else {
					t, ok = <-src
				}
				if !ok {
					return
				}
				mu.Lock()
				dead := errIdx >= 0 && t.i >= errIdx
				mu.Unlock()
				if dead {
					continue
				}
				v, err := stage(t.i, t.v)
				if err != nil {
					fail(t.i, err)
					continue
				}
				dst <- token[T]{t.i, v}
			}
		}()
		in = dst
	}

	out := make([]T, len(items))
	for t := range in {
		out[t.i] = t.v
	}
	if errIdx >= 0 {
		return out, pipErr
	}
	return out, nil
}

// recv receives from src, attributing blocked time to st.StallNS. Only
// time actually spent blocked counts: when a token is ready the fast
// select path returns without reading the clock.
func recv[T any](src <-chan token[T], st *obs.ParallelStats) (token[T], bool) {
	select {
	case t, ok := <-src:
		return t, ok
	default:
	}
	t0 := time.Now()
	t, ok := <-src
	st.StallNS.Add(time.Since(t0).Nanoseconds())
	return t, ok
}
