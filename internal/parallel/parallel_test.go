package parallel

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d", got)
	}
	if got := Workers(0); got != runtime.NumCPU() {
		t.Fatalf("Workers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(-5); got != runtime.NumCPU() {
		t.Fatalf("Workers(-5) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
}

// sliceSource returns a next func yielding items then io.EOF, counting
// pulls in *pulls.
func sliceSource(items []int, pulls *atomic.Int64) func() (int, error) {
	var pos atomic.Int64
	return func() (int, error) {
		pulls.Add(1)
		i := int(pos.Add(1)) - 1
		if i >= len(items) {
			return 0, io.EOF
		}
		return items[i], nil
	}
}

func TestMapSourceMatchesSequential(t *testing.T) {
	items := make([]int, 257)
	for i := range items {
		items[i] = i * 3
	}
	sq := func(i, v int) (int, error) { return v*v + i, nil }
	// The reference is a plain loop: every worker count, one included,
	// runs the pool.
	want := make([]int, len(items))
	for i, v := range items {
		want[i], _ = sq(i, v)
	}
	var pulls atomic.Int64
	for _, w := range []int{1, 2, 4, 8, 64} {
		got, err := MapSource(nil, w, sliceSource(items, &pulls), sq)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d (pull order must index results)", w, i, got[i], want[i])
			}
		}
	}
}

func TestMapSourceEmpty(t *testing.T) {
	for _, w := range []int{1, 8} {
		var pulls atomic.Int64
		out, err := MapSource(nil, w, sliceSource(nil, &pulls), func(i, v int) (int, error) { return v, nil })
		if err != nil || len(out) != 0 {
			t.Fatalf("workers=%d: got %v, %v", w, out, err)
		}
	}
}

func TestMapSourceLowestError(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, w := range []int{1, 2, 8} {
		var pulls atomic.Int64
		_, err := MapSource(nil, w, sliceSource(items, &pulls), func(i, v int) (int, error) {
			if i == 7 || i == 40 {
				return 0, fmt.Errorf("item %d failed", i)
			}
			return v, nil
		})
		if err == nil || err.Error() != "item 7 failed" {
			t.Fatalf("workers=%d: err = %v, want item 7 failed", w, err)
		}
	}
}

// TestMapSourceStopsEarly pins the abandon-on-failure contract: once fn
// fails, workers stop pulling, so a failure on the first item leaves
// almost all of a long stream untouched.
func TestMapSourceStopsEarly(t *testing.T) {
	items := make([]int, 10000)
	for _, w := range []int{1, 4} {
		var pulls, calls atomic.Int64
		_, err := MapSource(nil, w, sliceSource(items, &pulls), func(i, v int) (int, error) {
			calls.Add(1)
			if i == 0 {
				return 0, errors.New("boom")
			}
			return v, nil
		})
		if err == nil || err.Error() != "boom" {
			t.Fatalf("workers=%d: err = %v, want boom", w, err)
		}
		if n := pulls.Load(); n > int64(len(items))/10 {
			t.Fatalf("workers=%d: %d pulls after a failure on item 0, want early stop", w, n)
		}
		if n := calls.Load(); n > pulls.Load() {
			t.Fatalf("workers=%d: %d calls from %d pulls", w, n, pulls.Load())
		}
	}
}

// TestMapSourceSourceErrorStopsPulling pins the single-pull-after-error
// contract: once next fails, the source is never pulled again and the
// source's own error wins over any later fn failure.
func TestMapSourceSourceErrorStopsPulling(t *testing.T) {
	for _, w := range []int{1, 8} {
		var pulls atomic.Int64
		next := func() (int, error) {
			n := pulls.Add(1)
			if n >= 4 {
				return 0, errors.New("source torn")
			}
			return int(n), nil
		}
		_, err := MapSource(nil, w, next, func(i, v int) (int, error) { return v, nil })
		if err == nil || err.Error() != "source torn" {
			t.Fatalf("workers=%d: err = %v, want source torn", w, err)
		}
		if n := pulls.Load(); n != 4 {
			t.Fatalf("workers=%d: %d pulls, want exactly 4 (no pulls after the source error)", w, n)
		}
	}
}

// TestMapSourceBoundsCheckouts pins the memory bound: at most `workers`
// items are checked out — pulled but not yet mapped — at any moment.
func TestMapSourceBoundsCheckouts(t *testing.T) {
	const workers = 4
	items := make([]int, 64)
	var pulls, live, peak atomic.Int64
	_, err := MapSource(nil, workers, sliceSource(items, &pulls), func(i, v int) (int, error) {
		n := live.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer live.Add(-1)
		runtime.Gosched()
		return v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p < 1 || p > workers {
		t.Fatalf("peak live items = %d, want in [1,%d]", p, workers)
	}
}

func TestPipelineOrderAndOverlap(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	out, err := Pipeline(nil, 4, items,
		func(_ int, v int) (int, error) { return v + 1, nil },
		func(_ int, v int) (int, error) { return v * 2, nil },
		func(_ int, v int) (int, error) { return v - 3, nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if want := (i+1)*2 - 3; v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestPipelineNoStages(t *testing.T) {
	out, err := Pipeline(nil, 2, []int{5, 6})
	if err != nil || len(out) != 2 || out[0] != 5 || out[1] != 6 {
		t.Fatalf("got %v, %v", out, err)
	}
}

func TestPipelineError(t *testing.T) {
	items := make([]int, 50)
	out, err := Pipeline(nil, 2, items,
		func(i int, v int) (int, error) {
			if i == 30 {
				return 0, errors.New("stage1 item 30")
			}
			return v, nil
		},
		func(i int, v int) (int, error) {
			if i == 12 {
				return 0, errors.New("stage2 item 12")
			}
			return v, nil
		},
	)
	// Item 12 is the lowest failing index: its stage-2 error is what a
	// sequential item-by-item run would have hit first.
	if err == nil || err.Error() != "stage2 item 12" {
		t.Fatalf("err = %v, want stage2 item 12", err)
	}
	// Partial results survive the error so callers can release resources
	// owned by completed items: the slice keeps full length, every slot at
	// or past the failing index is the zero value.
	if len(out) != len(items) {
		t.Fatalf("len(out) = %d, want %d", len(out), len(items))
	}
	for i := 12; i < len(out); i++ {
		if out[i] != 0 {
			t.Fatalf("out[%d] = %d, want zero at/after failing index", i, out[i])
		}
	}
}

func TestPipelineErrorPartialResults(t *testing.T) {
	// Items that fully traversed every stage before the failure keep
	// their slot — the caller can walk them to release owned resources.
	items := make([]int, 20)
	for i := range items {
		items[i] = i
	}
	out, err := Pipeline(nil, 2, items,
		func(i int, v int) (int, error) {
			if i == 10 {
				return 0, errors.New("boom")
			}
			return v + 100, nil
		},
	)
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(out) != len(items) {
		t.Fatalf("len(out) = %d, want %d", len(out), len(items))
	}
	// Stage 1 is a single in-order goroutine, so items 0..9 completed and
	// were emitted before the failure at index 10 was recorded.
	for i := 0; i < 10; i++ {
		if out[i] != i+100 {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], i+100)
		}
	}
	for i := 10; i < len(out); i++ {
		if out[i] != 0 {
			t.Fatalf("out[%d] = %d, want zero", i, out[i])
		}
	}
}

func TestMapSourceCountsItems(t *testing.T) {
	st := &obs.ParallelStats{}
	items := make([]int, 23)
	for _, w := range []int{1, 4} {
		before := st.Items.Value()
		var pulls atomic.Int64
		_, err := MapSource(st, w, sliceSource(items, &pulls), func(i int, v int) (int, error) { return i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Items.Value() - before; got != int64(len(items)) {
			t.Errorf("workers=%d: claimed %d items, want %d", w, got, len(items))
		}
	}
	if st.Workers.Value() != 4 {
		t.Errorf("worker high-water = %d, want 4", st.Workers.Value())
	}
}

func TestPipelineStallAccounting(t *testing.T) {
	st := &obs.ParallelStats{}
	// A slow first stage starves the second: the downstream stage must
	// accumulate stall time while item order stays intact.
	items := []int{0, 1, 2, 3}
	slow := func(i int, v int) (int, error) { time.Sleep(2 * time.Millisecond); return v * 10, nil }
	fast := func(i int, v int) (int, error) { return v + 1, nil }
	out, err := Pipeline(st, 2, items, slow, fast)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*10+1 {
			t.Errorf("out[%d] = %d, want %d", i, v, i*10+1)
		}
	}
	if st.StallNS.Value() <= 0 {
		t.Errorf("stall_ns = %d, want > 0 (fast stage starved by slow stage)", st.StallNS.Value())
	}
}

func TestPipelineStatefulStage(t *testing.T) {
	// A stage is a single goroutine, so per-stage state needs no locking
	// and observes items strictly in order.
	items := make([]int, 100)
	for i := range items {
		items[i] = 1
	}
	running := 0
	out, err := Pipeline(nil, 3, items, func(i int, v int) (int, error) {
		running += v // cumulative sum: depends on strict ordering
		return running, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i+1)
		}
	}
}
