package sweep

import (
	"context"
	"encoding/json"
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

// run is the result-less form of Map most tests drive: background
// context, cells that ignore their worker.
func run(workers, n int, m Monitor, fn func(i int) error) error {
	_, err := runStats(workers, n, m, fn)
	return err
}

// runStats runs each cell on its Map worker's Worker, as the experiments'
// cell scheduler runs one (Idle, Start, the body, Busy, Done), so a
// non-nil m sees its CellStart and CellDone and the workers' records can
// be tested on a real parallel sweep. It returns each worker's stats, one per
// Workers(workers). A panicking body gets no CellDone here: Map recovers
// it, and the scheduler's own recovery is Protect's.
func runStats(workers, n int, m Monitor, fn func(i int) error) ([]WorkerStats, error) {
	ws := make([]*Worker, Workers(workers))
	for k := range ws {
		ws[k] = NewWorker(k, m)
	}
	_, err := Map(context.Background(), workers, n, func(_ context.Context, w, i int) (struct{}, error) {
		wk := ws[w]
		wk.Idle()
		wk.Start(i)
		err := fn(i)
		wk.Done(i, wk.Busy(), err)
		return struct{}{}, err
	})
	stats := make([]WorkerStats, len(ws))
	for k, wk := range ws {
		stats[k] = wk.Stats
	}
	return stats, err
}

func TestMapOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		out, err := Map(context.Background(), workers, 100,
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
		out, err := Map(context.Background(), workers, 200, func(_ context.Context, w, i int) (int, error) {
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
		ws, err := runStats(tc.workers, tc.n, nil, func(int) error {
			time.Sleep(time.Millisecond)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		clamp := min(tc.workers, tc.n)
		var started, finished int
		for i, s := range ws {
			if s.Worker != i {
				t.Errorf("ws[%d].Worker = %d", i, s.Worker)
			}
			if s.Errs != 0 {
				t.Errorf("worker %d reports %d errs on an error-free sweep", i, s.Errs)
			}
			if i >= clamp && s.Started != 0 {
				t.Errorf("workers=%d n=%d: worker %d, beyond the clamp of %d, started %d cells",
					tc.workers, tc.n, i, clamp, s.Started)
			}
			if s.Finished > 0 && s.Busy <= 0 {
				t.Errorf("worker %d finished %d cells with zero busy time", i, s.Finished)
			}
			if len(s.Cells) != s.Finished {
				t.Errorf("worker %d finished %d cells but recorded %d", i, s.Finished, len(s.Cells))
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

func TestParseOnError(t *testing.T) {
	for s, want := range map[string]OnError{"": Abort, "abort": Abort, "skip": Skip} {
		got, err := ParseOnError(s)
		if err != nil || got != want {
			t.Errorf("ParseOnError(%q) = %v, %v", s, got, err)
		}
	}
	for _, bad := range []string{"quarantine", "retry"} {
		if _, err := ParseOnError(bad); err == nil {
			t.Errorf("ParseOnError accepted %q", bad)
		}
	}
}

// TestRunContextCancel: after cancellation no new cells are claimed,
// in-flight cells finish, and the context error comes back.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	release := make(chan struct{})
	_, err := Map(ctx, 2, 10_000, func(ctx context.Context, _, i int) (struct{}, error) {
		ran.Add(1)
		if i == 0 {
			cancel()
			close(release) // both workers may pass the claim check once more
		}
		<-release
		return struct{}{}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Exactly the cells claimed before (or racing with) cancellation ran:
	// with 2 workers that is at most a handful, never the full 10k.
	if n := ran.Load(); n > 100 {
		t.Errorf("%d cells ran after cancellation", n)
	}
}

// TestCellTimeout: a stuck cell is abandoned by the watchdog and surfaces
// as a *TimeoutError wrapped in the cell's *CellError; the stuck
// goroutine's context is canceled so it can unwind.
func TestCellTimeout(t *testing.T) {
	var unwound atomic.Bool
	_, err := Map(context.Background(), 2, 4, func(ctx context.Context, _, i int) (int, error) {
		return Watch(ctx, 20*time.Millisecond, i, func(ctx context.Context) (int, error) {
			if i == 2 {
				<-ctx.Done() // hang until the watchdog cancels us
				unwound.Store(true)
				return 0, ctx.Err()
			}
			return i, nil
		})
	})
	var te *TimeoutError
	if !errors.As(err, &te) || te.Cell != 2 {
		t.Fatalf("err = %v, want cell 2's *TimeoutError", err)
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Cell != 2 {
		t.Fatalf("timeout not wrapped in *CellError: %v", err)
	}
	// The abandoned goroutine got its cancellation signal. Poll briefly:
	// the watchdog returns without waiting for abandoned cells.
	deadline := time.Now().Add(2 * time.Second)
	for !unwound.Load() {
		if time.Now().After(deadline) {
			t.Fatal("abandoned cell never saw its context cancel")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSkipPolicyReportsHoles: under skip, failures never stop the sweep:
// it returns the good results, and Holes reports each failure as its
// *CellError, sorted by cell. A cancellation is never a hole.
func TestSkipPolicyReportsHoles(t *testing.T) {
	fails := Failures{OnError: Skip}
	out, err := Map(context.Background(), 4, 20, func(_ context.Context, _, i int) (int, error) {
		if i == 17 || i == 3 {
			if fails.Add(&CellError{Cell: i, Err: fmt.Errorf("bad cell %d", i)}) {
				t.Errorf("cell %d's failure stopped a skip-policy sweep", i)
			}
			return 0, nil
		}
		return i, nil
	})
	if err != nil || fails.Err() != nil {
		t.Fatalf("err = %v, Failures.Err = %v", err, fails.Err())
	}
	holes := fails.Holes()
	if len(holes) != 2 || holes[0].Cell != 3 || holes[1].Cell != 17 {
		t.Fatalf("holes = %v, want sorted cells 3 and 17", holes)
	}
	for i, v := range out {
		if i == 17 || i == 3 {
			if v != 0 {
				t.Errorf("hole cell %d has non-zero result %d", i, v)
			}
			continue
		}
		if v != i {
			t.Errorf("out[%d] = %d", i, v)
		}
	}
	if !fails.Add(&CellError{Cell: 9, Err: context.Canceled}) || fails.Err() == nil || len(fails.Holes()) != 2 {
		t.Error("a canceled cell became a hole instead of stopping the sweep")
	}
}

// TestMapContextResults: a sweep under a context still returns ordered
// results when nothing goes wrong.
func TestMapContextResults(t *testing.T) {
	out, err := Map(context.Background(), 4, 50, func(_ context.Context, _, i int) (int, error) {
		return i + 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestLegacyEntryPointsWrapErrors pins that a failing cell — in the form
// the old Run/Map family wrapped — reports a *CellError wrapping the cause.
func TestLegacyEntryPointsWrapErrors(t *testing.T) {
	cause := errors.New("cause")
	_, err := Map(context.Background(), 2, 8, func(_ context.Context, _, i int) (int, error) {
		if i == 6 {
			return 0, cause
		}
		return i, nil
	})
	var ce *CellError
	if !errors.As(err, &ce) || ce.Cell != 6 || !errors.Is(err, cause) {
		t.Fatalf("error = %v, want cell 6's *CellError wrapping the cause", err)
	}
}

// TestOnErrorTextRoundTrip: the policy marshals as its flag spelling and
// unmarshals with flag-grade validation, so campaign specs can carry an
// OnError field directly.
func TestOnErrorTextRoundTrip(t *testing.T) {
	type spec struct {
		OnCellError OnError `json:"on_cell_error,omitempty"`
	}
	for _, pol := range []OnError{Abort, Skip} {
		data, err := json.Marshal(spec{OnCellError: pol})
		if err != nil {
			t.Fatal(err)
		}
		var got spec
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		if got.OnCellError != pol {
			t.Errorf("round trip %v -> %s -> %v", pol, data, got.OnCellError)
		}
	}
	for _, bad := range []string{"explode", "retry"} {
		var got spec
		if err := json.Unmarshal([]byte(`{"on_cell_error":"`+bad+`"}`), &got); err == nil {
			t.Errorf("policy %q unmarshaled without error", bad)
		}
	}
}
