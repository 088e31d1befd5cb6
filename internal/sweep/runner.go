package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// OnError selects what the engine does with a cell whose final attempt
// failed.
type OnError uint8

const (
	// Abort stops claiming new cells and returns the lowest failing
	// index's error (the zero value).
	Abort OnError = iota
	// Skip records the failure as a CellFailure hole and keeps sweeping.
	Skip
	// Retry re-runs the cell with exponential backoff while the error is
	// transient and attempts remain, then aborts.
	Retry
)

func (o OnError) String() string {
	switch o {
	case Skip:
		return "skip"
	case Retry:
		return "retry"
	default:
		return "abort"
	}
}

// MarshalText encodes the policy as its flag spelling, so structures
// embedding an OnError (campaign specs, manifests) round-trip it as a
// readable string rather than an opaque integer.
func (o OnError) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText parses the flag spelling, making OnError usable directly
// as a JSON field ("on_cell_error": "retry") with the same validation
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
	case "retry":
		return Retry, nil
	}
	return Abort, fmt.Errorf("sweep: unknown cell-error policy %q (want abort, skip, or retry)", s)
}

// Policy configures the engine's failure handling. The zero value means
// no timeout, no retries, abort on the first error.
type Policy struct {
	OnError OnError

	// MaxAttempts bounds how often a cell runs under Retry (<=0 selects
	// 3). Backoff is the sleep before the second attempt and doubles per
	// further attempt (<=0 selects 100ms).
	MaxAttempts int
	Backoff     time.Duration

	// Transient decides whether an error is worth retrying. Nil retries
	// everything except cancellation; a watchdog timeout is retried (the
	// next attempt gets a fresh deadline).
	Transient func(error) bool

	// CellTimeout arms a per-cell watchdog: an attempt that produces no
	// result within the limit is abandoned (its context is canceled, the
	// goroutine left to die) and fails with a *TimeoutError. Zero
	// disables the watchdog and runs cells inline on their worker.
	CellTimeout time.Duration

	// Skip marks cells to omit entirely — no execution, no monitor
	// callbacks, zero-value results. Used by the experiments layer to
	// splice result-store hits around the engine.
	Skip func(cell int) bool

	// OnWorkerStats, if non-nil, receives the engine's per-worker
	// accounting exactly once, after every worker has drained. The stats
	// are collected in per-worker cache-line-padded slots each worker
	// writes alone — no shared atomics, no locks on the cell hot path —
	// and folded only here.
	OnWorkerStats func([]WorkerStats)

	// sleep is a test seam for the backoff delay.
	sleep func(ctx context.Context, d time.Duration)
}

// WorkerStats is one worker's accounting for a sweep: how many cells it
// claimed and finished, how long it spent inside cell attempts (Busy),
// and how long it spent between cells — claiming work, scanning skipped
// indices, sleeping retry backoffs' complement (Wait). Busy/Wait cover
// the span from the worker's start to its last cell's completion;
// utilization over w workers is sum(Busy) / (w × sweep wall clock).
type WorkerStats struct {
	Worker   int
	Started  int           // cells claimed and begun
	Finished int           // cells that reached a final outcome
	Errs     int           // cells whose final outcome was an error
	Busy     time.Duration // wall clock inside cell attempts
	Wait     time.Duration // wall clock between cells (claim/skip/queue-wait)
}

// workerSlot is the live form of WorkerStats: one per worker, written only
// by its owning goroutine, padded so adjacent workers' slots never share a
// cache line (the whole point is that a worker's bookkeeping stays local).
type workerSlot struct {
	started, finished, errs int64
	busyNs, waitNs          int64
	_                       [88]byte // pad 5×8 B of counters to 128 B
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 100 * time.Millisecond
	}
	if p.Transient == nil {
		p.Transient = func(err error) bool {
			return !errors.Is(err, context.Canceled)
		}
	}
	if p.sleep == nil {
		p.sleep = ctxSleep
	}
	return p
}

func ctxSleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// RetryMonitor is an optional Monitor extension: monitors implementing it
// additionally observe each failed attempt that will be retried. CellDone
// still fires exactly once per cell, with the final error.
type RetryMonitor interface {
	Monitor
	CellRetry(cell, attempt int, err error)
}

// engine is the shared (non-generic) state of one MapWorkersPolicy run.
type engine struct {
	ctx context.Context
	m   Monitor
	pol Policy

	next    atomic.Int64
	aborted atomic.Bool

	mu     sync.Mutex
	errIdx int
	errVal error
	fails  []CellFailure
}

// abort records an aborting failure, keeping the lowest index's error.
func (e *engine) abort(i int, err error) {
	e.mu.Lock()
	if i < e.errIdx {
		e.errIdx, e.errVal = i, err
	}
	e.mu.Unlock()
	e.aborted.Store(true)
}

// hole records a skip-policy failure.
func (e *engine) hole(i int, err error) {
	e.mu.Lock()
	e.fails = append(e.fails, CellFailure{Cell: i, Err: err})
	e.mu.Unlock()
}

// MapWorkersPolicy is the sweep engine: it runs fn for every cell in
// [0, n) across at most workers goroutines (workers < 1 selects
// GOMAXPROCS) under a context, an optional monitor, and a failure policy,
// and returns the results in cell order.
//
// Determinism contract: cells are claimed in increasing order, each cell
// writes only its own result slot, and an aborting error is the one a
// serial loop would have returned — the lowest failing cell's. After a
// failure no new cells are claimed, but everything already in flight
// finishes; since claims are monotonic, every cell below the lowest
// failure has run by then. Cell failures always surface as *CellError
// wrapping the cause: the fn error, a *PanicError (a panicking cell is
// recovered in its worker, never killing the process), or a
// *TimeoutError.
//
// fn receives the worker running it, in [0, Workers(workers)). A worker
// runs its cells strictly in sequence, so worker-indexed state (scratch
// buffers, allocation pools) needs no locking; results must still depend
// only on the cell, never on the worker. The monitor (nil for none) is
// purely observational: it receives callbacks concurrently from worker
// goroutines and must not affect cell execution.
//
// Under the zero Policy the first failure aborts the sweep; Skip-policy
// failures come back as sorted CellFailures with a nil error, and
// cancellation stops claiming cells and returns ctx.Err() once every
// in-flight cell has drained. On a non-nil error the results are
// discarded (nil slice).
func MapWorkersPolicy[T any](ctx context.Context, workers, n int, m Monitor, pol Policy, fn func(ctx context.Context, worker, i int) (T, error)) ([]T, []CellFailure, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	e := &engine{ctx: ctx, m: m, pol: pol.withDefaults(), errIdx: n}
	slots := make([]workerSlot, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			slot := &slots[w]
			last := time.Now()
			for !e.aborted.Load() && ctx.Err() == nil {
				i := int(e.next.Add(1)) - 1
				if i >= n {
					return
				}
				if e.pol.Skip != nil && e.pol.Skip(i) {
					continue
				}
				start := time.Now()
				slot.waitNs += start.Sub(last).Nanoseconds()
				slot.started++
				err := runCellPolicy(e, w, i, start, &out[i], fn)
				last = time.Now()
				slot.busyNs += last.Sub(start).Nanoseconds()
				slot.finished++
				if err != nil {
					slot.errs++
				}
			}
		}(w)
	}
	wg.Wait()
	if e.pol.OnWorkerStats != nil {
		stats := make([]WorkerStats, workers)
		for w := range slots {
			s := &slots[w]
			stats[w] = WorkerStats{
				Worker: w, Started: int(s.started), Finished: int(s.finished),
				Errs: int(s.errs), Busy: time.Duration(s.busyNs), Wait: time.Duration(s.waitNs),
			}
		}
		e.pol.OnWorkerStats(stats)
	}
	sort.Slice(e.fails, func(a, b int) bool { return e.fails[a].Cell < e.fails[b].Cell })
	if e.errVal != nil {
		return nil, e.fails, e.errVal
	}
	if err := ctx.Err(); err != nil {
		return nil, e.fails, err
	}
	return out, e.fails, nil
}

// runCellPolicy executes one cell: monitor callbacks exactly once, the
// attempt/retry loop, and routing the final error per the policy. start is
// the moment the owning worker claimed the cell (shared with the engine's
// per-worker accounting); the returned error is the cell's final outcome.
func runCellPolicy[T any](e *engine, w, i int, start time.Time, slot *T, fn func(ctx context.Context, worker, i int) (T, error)) (finalErr error) {
	if e.m != nil {
		e.m.CellStart(i, w)
		defer func() { e.m.CellDone(i, w, time.Since(start), finalErr) }()
	}
	for attempt := 1; ; attempt++ {
		v, err := runAttempt(e.ctx, e.pol.CellTimeout, w, i, fn)
		if err == nil {
			*slot = v
			finalErr = nil // a retried cell that succeeded is not an error
			return
		}
		finalErr = &CellError{Cell: i, Attempt: attempt, Err: err}
		if e.pol.OnError == Retry && attempt < e.pol.MaxAttempts &&
			e.pol.Transient(err) && e.ctx.Err() == nil {
			if rm, ok := e.m.(RetryMonitor); ok {
				rm.CellRetry(i, attempt, finalErr)
			}
			backoff := e.pol.Backoff << uint(min(attempt-1, 16))
			e.pol.sleep(e.ctx, backoff)
			continue
		}
		break
	}
	if e.pol.OnError == Skip && !errors.Is(finalErr, context.Canceled) {
		e.hole(i, finalErr)
		return
	}
	e.abort(i, finalErr)
	return
}

// attemptResult carries one attempt's outcome through the watchdog channel.
type attemptResult[T any] struct {
	v   T
	err error
}

// runAttempt runs fn once for cell i. With no timeout it runs inline on
// the worker (panics recovered to *PanicError). With a timeout the
// attempt runs in its own goroutine under a cancelable child context; if
// no result arrives in time the goroutine is abandoned — its context
// canceled so cooperative cells unwind — and a *TimeoutError is returned.
// An abandoned attempt's late result (and any late panic) is discarded,
// so the engine never touches results it did not wait for.
func runAttempt[T any](ctx context.Context, timeout time.Duration, w, i int, fn func(ctx context.Context, worker, i int) (T, error)) (T, error) {
	if timeout <= 0 {
		return callCell(ctx, w, i, fn)
	}
	cellCtx, cancel := context.WithCancel(ctx)
	ch := make(chan attemptResult[T], 1)
	go func() {
		v, err := callCell(cellCtx, w, i, fn)
		ch <- attemptResult[T]{v, err}
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case r := <-ch:
		cancel()
		return r.v, r.err
	case <-t.C:
		cancel()
		var zero T
		return zero, &TimeoutError{Cell: i, Limit: timeout}
	}
}

// callCell invokes fn with panic recovery, converting a panic into a
// *PanicError naming the cell.
func callCell[T any](ctx context.Context, w, i int, fn func(ctx context.Context, worker, i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Cell: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, w, i)
}
