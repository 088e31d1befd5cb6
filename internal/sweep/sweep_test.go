package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	for _, n := range []int{0, -1} {
		if got := Workers(n); got != want {
			t.Errorf("Workers(%d) = %d, want %d", n, got, want)
		}
	}
}

// run is the result-less form of MapWorkersPolicy most tests drive:
// background context, the zero Policy, cells that ignore their worker.
func run(workers, n int, m Monitor, fn func(i int) error) error {
	_, _, err := MapWorkersPolicy(context.Background(), workers, n, m, Policy{},
		func(_ context.Context, _, i int) (struct{}, error) { return struct{}{}, fn(i) })
	return err
}

func TestMapOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		out, _, err := MapWorkersPolicy(context.Background(), workers, 100, nil, Policy{},
			func(_ context.Context, _, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: got %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	if err := run(4, 0, nil, func(int) error { t.Error("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestRunRunsEveryIndexOnce(t *testing.T) {
	var ran [257]atomic.Int32
	if err := run(8, len(ran), nil, func(i int) error { ran[i].Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Errorf("index %d ran %d times", i, n)
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	err := run(workers, 50, nil, func(i int) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent cells, want <= %d", p, workers)
	}
}

// TestRunErrorIsLowestIndex checks the determinism contract: regardless of
// worker count or scheduling, the reported error matches the serial run's
// (the lowest failing index), wrapped in a *CellError naming that cell.
func TestRunErrorIsLowestIndex(t *testing.T) {
	sentinel := errors.New("injected failure")
	boom := func(i int) error {
		if i == 13 || i == 37 {
			return fmt.Errorf("cell %d failed: %w", i, sentinel)
		}
		return nil
	}
	for _, workers := range []int{1, 2, 8} {
		for trial := 0; trial < 20; trial++ {
			err := run(workers, 64, nil, boom)
			var ce *CellError
			if !errors.As(err, &ce) || ce.Cell != 13 {
				t.Fatalf("workers=%d: err = %v, want cell 13's *CellError", workers, err)
			}
			if !errors.Is(err, sentinel) {
				t.Fatalf("workers=%d: CellError does not unwrap to the cause: %v", workers, err)
			}
			if err.Error() != "sweep: cell 13: cell 13 failed: injected failure" {
				t.Fatalf("workers=%d: err.Error() = %q", workers, err)
			}
		}
	}
}

// TestMapWorkersMonitored checks the worker index cells receive: worker ids
// stay in range, each worker's cells run sequentially (worker-indexed state
// needs no locking), and results are still keyed by cell index.
func TestMapWorkersMonitored(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		busy := make([]atomic.Int32, workers)
		out, _, err := MapWorkersPolicy(context.Background(), workers, 200, nil, Policy{}, func(_ context.Context, w, i int) (int, error) {
			if w < 0 || w >= workers {
				return 0, fmt.Errorf("cell %d: worker %d out of range [0,%d)", i, w, workers)
			}
			if busy[w].Add(1) != 1 {
				return 0, fmt.Errorf("cell %d: worker %d running two cells at once", i, w)
			}
			time.Sleep(20 * time.Microsecond)
			busy[w].Add(-1)
			return i * 3, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*3 {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestRunStopsClaimingAfterFailure(t *testing.T) {
	sentinel := errors.New("stop")
	var after atomic.Int32
	err := run(2, 10_000, nil, func(i int) error {
		if i == 0 {
			time.Sleep(5 * time.Millisecond) // let the flag propagate
			return sentinel
		}
		if i > 100 {
			after.Add(1)
		}
		time.Sleep(50 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	// Not all 10k cells should have run; the pool aborts once the failure
	// lands. The bound is generous to stay robust under slow CI.
	if n := after.Load(); n > 5_000 {
		t.Errorf("%d cells ran after the failure window", n)
	}
}

// TestMapWorkersStats: the per-worker accounting must cover every cell
// exactly once (started == finished, summing to n), stay within the
// workers-vs-cells clamp, and report plausible busy time.
func TestMapWorkersStats(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{1, 32}, {4, 32}, {8, 3}, // last: more workers than cells
	} {
		var ws []WorkerStats
		pol := Policy{OnWorkerStats: func(s []WorkerStats) { ws = s }}
		out, _, err := MapWorkersPolicy(context.Background(), tc.workers, tc.n, nil, pol, func(_ context.Context, w, i int) (int, error) {
			time.Sleep(time.Millisecond)
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != tc.n {
			t.Fatalf("workers=%d n=%d: %d results", tc.workers, tc.n, len(out))
		}
		clamp := tc.workers
		if tc.n < clamp {
			clamp = tc.n
		}
		if len(ws) != clamp {
			t.Fatalf("workers=%d n=%d: %d WorkerStats, want %d (clamped)",
				tc.workers, tc.n, len(ws), clamp)
		}
		var started, finished int
		for i, s := range ws {
			if s.Worker != i {
				t.Errorf("ws[%d].Worker = %d", i, s.Worker)
			}
			if s.Errs != 0 {
				t.Errorf("worker %d reports %d errs on an error-free sweep", i, s.Errs)
			}
			if s.Finished > 0 && s.Busy <= 0 {
				t.Errorf("worker %d finished %d cells with zero busy time", i, s.Finished)
			}
			started += s.Started
			finished += s.Finished
		}
		if started != tc.n || finished != tc.n {
			t.Errorf("workers=%d n=%d: started/finished = %d/%d, want %d/%d",
				tc.workers, tc.n, started, finished, tc.n, tc.n)
		}
	}
}
