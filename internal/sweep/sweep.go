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

import "runtime"

// Workers normalizes a requested worker count: any value below 1 selects
// runtime.GOMAXPROCS(0), i.e. one worker per available CPU.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}
