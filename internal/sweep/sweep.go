// Package sweep is the parallel sweep engine behind the experiment
// harness. The paper's evaluation is a large (workload × repair-policy ×
// machine-configuration) product of independent simulations; sweep fans
// those cells out across a bounded worker pool and reassembles the results
// deterministically, so a parallel sweep is byte-identical to a serial one.
//
// Cells must be independent: each owns its pipeline.Sim and shares no
// mutable state with its siblings. Everything the simulator reads at
// package level (decode tables, workload registry) is immutable after
// init, which is what makes the fan-out safe.
//
// The engine is resilient by policy (see Policy and MapWorkersPolicy):
// cells can be canceled via a context, watched by a per-cell timeout,
// retried with backoff, or skipped with the failure reported as an
// explicit hole. Failures are always typed — *CellError wrapping the
// cause. Crash-safe resume lives a layer up: the experiments package
// persists each finished cell in the result store (internal/resultstore)
// and splices stored cells around the engine via Policy.Skip.
package sweep

import (
	"context"
	"runtime"
)

// Workers normalizes a requested worker count: any value below 1 selects
// runtime.GOMAXPROCS(0), i.e. one worker per available CPU.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes fn(0), fn(1), …, fn(n-1) across at most workers goroutines
// (workers < 1 selects GOMAXPROCS) and waits for completion.
//
// Determinism contract: indices are claimed in increasing order, each cell
// writes only state it owns (typically its slot of a results slice), and
// the returned error is the one a serial loop would have returned — the
// error from the lowest failing index. After a failure no new indices are
// claimed, but everything already in flight finishes; since claims are
// monotonic, every index below the lowest failure has run by then.
//
// A cell that panics does not kill the process: the panic is recovered in
// the worker and converted to a *PanicError, wrapped (like every cell
// failure) in a *CellError carrying the cell index, then flows through the
// same lowest-index error selection.
func Run(workers, n int, fn func(i int) error) error {
	return RunMonitored(workers, n, nil, fn)
}

// RunMonitored is Run with an optional Monitor observing each cell's
// start, completion, owning worker, and wall-clock duration. The monitor
// is purely observational: it receives callbacks concurrently from worker
// goroutines and must not affect cell execution.
func RunMonitored(workers, n int, m Monitor, fn func(i int) error) error {
	return RunWorkersMonitored(workers, n, m, func(_, i int) error { return fn(i) })
}

// RunWorkersMonitored is RunMonitored for cells that want to know which
// worker runs them: fn receives (worker, i) with worker in [0, Workers(n)).
// A worker runs its cells strictly sequentially, so worker-indexed state
// (scratch buffers, allocation pools) needs no locking — that is the whole
// point of exposing the index. Cell results must still depend only on i,
// never on worker, or the determinism contract breaks.
func RunWorkersMonitored(workers, n int, m Monitor, fn func(worker, i int) error) error {
	_, err := RunWorkersPolicy(context.Background(), workers, n, m, Policy{},
		func(_ context.Context, w, i int) error { return fn(w, i) })
	return err
}

// Map runs fn for every index in [0, n) across at most workers goroutines
// and returns the results in index order. On error the results are
// discarded and the lowest failing index's error is returned (see Run).
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapMonitored[T](workers, n, nil, fn)
}

// MapMonitored is Map with an optional Monitor (see RunMonitored).
func MapMonitored[T any](workers, n int, m Monitor, fn func(i int) (T, error)) ([]T, error) {
	return MapWorkersMonitored(workers, n, m, func(_, i int) (T, error) { return fn(i) })
}

// MapWorkersMonitored is MapMonitored for worker-aware cells (see
// RunWorkersMonitored): fn receives (worker, i) so it can reach
// worker-indexed state without locking, while results stay keyed by i.
func MapWorkersMonitored[T any](workers, n int, m Monitor, fn func(worker, i int) (T, error)) ([]T, error) {
	out, _, err := MapWorkersPolicy(context.Background(), workers, n, m, Policy{},
		func(_ context.Context, w, i int) (T, error) { return fn(w, i) })
	return out, err
}

// MapWorkersStats is MapWorkersMonitored returning the engine's per-worker
// accounting alongside the results: one WorkerStats per actual worker
// (after the workers-vs-cells clamp), each collected in a padded slot its
// owner alone writes — the scalability harness's view of where the wall
// clock went without any shared counters on the cell hot path.
func MapWorkersStats[T any](workers, n int, m Monitor, fn func(worker, i int) (T, error)) ([]T, []WorkerStats, error) {
	var ws []WorkerStats
	pol := Policy{OnWorkerStats: func(s []WorkerStats) { ws = s }}
	out, _, err := MapWorkersPolicy(context.Background(), workers, n, m, pol,
		func(_ context.Context, w, i int) (T, error) { return fn(w, i) })
	return out, ws, err
}
