// Package sweep holds the parallel map and the cell vocabulary of the
// experiment harness. The paper's evaluation is a large (workload ×
// repair-policy × machine-configuration) product of independent
// simulations. The experiments package schedules those cells (see its
// runUnits) and runs and reports them through the pieces here: Protect
// and Watch turn a cell's panic or hang into a typed failure (*PanicError,
// *TimeoutError), which the sweep reports as the cell's *CellError;
// Failures routes failures under the OnError policy; and a Worker fires
// the Monitor callbacks (consumed by collectors such as Timing and
// Progress) of the cells it runs and keeps its WorkerStats. Map is the
// plain parallel map the scheduler's pre-phases (image builds, warm
// states) fan out on.
//
// Cells must be independent: each owns its pipeline.Sim and shares no
// mutable state with its siblings. Everything the simulator reads at
// package level (decode tables, workload registry) is immutable after
// init, which is what makes the fan-out safe. Results are reassembled in
// cell order, so a parallel sweep is byte-identical to a serial one.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Workers normalizes a requested worker count: any value below 1 selects
// runtime.GOMAXPROCS(0), i.e. one worker per available CPU.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// OnError selects what a sweep does with a failing cell.
type OnError uint8

const (
	// Abort stops starting new cells and returns the lowest failing
	// cell's error (the zero value).
	Abort OnError = iota
	// Skip records the failure as an explicit hole and keeps sweeping.
	Skip
)

func (o OnError) String() string {
	if o == Skip {
		return "skip"
	}
	return "abort"
}

// MarshalText encodes the policy as its flag spelling, so structures
// embedding an OnError (campaign specs, manifests) round-trip it as a
// readable string rather than an opaque integer.
func (o OnError) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText parses the flag spelling, making OnError usable directly
// as a JSON field ("on_cell_error": "skip") with the same validation
// the -on-cell-error flag gets.
func (o *OnError) UnmarshalText(b []byte) error {
	v, err := ParseOnError(string(b))
	if err != nil {
		return err
	}
	*o = v
	return nil
}

// ParseOnError parses the -on-cell-error flag value.
func ParseOnError(s string) (OnError, error) {
	switch s {
	case "", "abort":
		return Abort, nil
	case "skip":
		return Skip, nil
	}
	return Abort, fmt.Errorf("sweep: unknown cell-error policy %q (want abort or skip)", s)
}

// Failures routes a sweep's cell failures under its OnError policy: under
// Skip each failure is a hole and the sweep goes on; under Abort (the zero
// value) the sweep stops and keeps the lowest failing cell's error, the
// one a serial loop would have returned. A cancellation is never a hole.
// Failures is safe for concurrent use.
type Failures struct {
	OnError OnError

	mu    sync.Mutex
	first *CellError
	holes []*CellError
}

// Add records a cell's failure and reports whether the sweep must stop.
func (f *Failures) Add(err *CellError) (stop bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.OnError == Skip && !errors.Is(err, context.Canceled) {
		f.holes = append(f.holes, err)
		return false
	}
	if f.first == nil || err.Cell < f.first.Cell {
		f.first = err
	}
	return true
}

// Err returns the lowest failing cell's error among those that stopped
// the sweep, or nil.
func (f *Failures) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.first == nil {
		return nil
	}
	return f.first
}

// Holes returns the skipped failures in cell order.
func (f *Failures) Holes() []*CellError {
	f.mu.Lock()
	defer f.mu.Unlock()
	sort.Slice(f.holes, func(a, b int) bool { return f.holes[a].Cell < f.holes[b].Cell })
	return f.holes
}

// Map runs fn for every index in [0, n) across at most workers goroutines
// (workers < 1 selects GOMAXPROCS) and returns the results in index order.
//
// Determinism contract: indices are claimed in increasing order, each
// call writes only its own result slot, and an error is the one a serial
// loop would have returned — the lowest failing index's, as a *CellError
// wrapping the cause. After a failure no new index is claimed, but calls
// already in flight finish; since claims are monotonic, every index below
// the lowest failure has run by then. A panicking call is recovered in its
// worker and fails its index with a *PanicError, never killing the
// process. Once ctx is done no index is claimed and Map returns ctx.Err().
//
// fn receives the worker running it, in [0, Workers(workers)). A worker
// runs its calls strictly in sequence, so worker-indexed state (scratch
// buffers, allocation pools) needs no locking; results must still depend
// only on the index, never on the worker.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, worker, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		fails  Failures
		wg     sync.WaitGroup
	)
	for w := range min(Workers(workers), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				err := Protect(i, func() (err error) {
					out[i], err = fn(ctx, w, i)
					return err
				})
				if err != nil {
					fails.Add(&CellError{Cell: i, Err: err})
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if err := fails.Err(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Protect runs cell's body fn, converting a panic into a *PanicError
// naming cell.
func Protect(cell int, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Cell: cell, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Watch runs cell's body fn under Protect and, with a limit, under the
// cell watchdog: fn runs on its own goroutine under a child context, and
// if no result arrives within the limit that goroutine is abandoned — its
// context canceled so a cooperative body unwinds, its late result
// discarded — and the cell fails with a *TimeoutError. An abandoned body
// may still be running, so it must share no mutable state with whatever
// its worker runs next.
func Watch[T any](ctx context.Context, limit time.Duration, cell int, fn func(context.Context) (T, error)) (T, error) {
	type result struct {
		v   T
		err error
	}
	run := func(ctx context.Context) (r result) {
		r.err = Protect(cell, func() (err error) {
			r.v, err = fn(ctx)
			return err
		})
		return r
	}
	if limit <= 0 {
		r := run(ctx)
		return r.v, r.err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan result, 1)
	go func() { ch <- run(ctx) }()
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-t.C:
		var zero T
		return zero, &TimeoutError{Cell: cell, Limit: limit}
	}
}
