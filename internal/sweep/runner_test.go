package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseOnError(t *testing.T) {
	for s, want := range map[string]OnError{"": Abort, "abort": Abort, "skip": Skip, "retry": Retry} {
		got, err := ParseOnError(s)
		if err != nil || got != want {
			t.Errorf("ParseOnError(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseOnError("quarantine"); err == nil {
		t.Error("ParseOnError accepted an unknown policy")
	}
}

// TestRunContextCancel: after cancellation no new cells are claimed,
// in-flight cells finish, and the context error comes back.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	release := make(chan struct{})
	_, _, err := MapWorkersPolicy(ctx, 2, 10_000, nil, Policy{}, func(ctx context.Context, _, i int) (struct{}, error) {
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

// TestMapContextResults: a sweep under a context still returns ordered
// results when nothing goes wrong.
func TestMapContextResults(t *testing.T) {
	out, _, err := MapWorkersPolicy(context.Background(), 4, 50, nil, Policy{}, func(_ context.Context, _, i int) (int, error) {
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

// TestCellTimeout: a stuck cell is abandoned by the watchdog and surfaces
// as a *TimeoutError wrapped in the cell's *CellError; the stuck
// goroutine's context is canceled so it can unwind.
func TestCellTimeout(t *testing.T) {
	var unwound atomic.Bool
	pol := Policy{CellTimeout: 20 * time.Millisecond}
	_, _, err := MapWorkersPolicy(context.Background(), 2, 4, nil, pol,
		func(ctx context.Context, _, i int) (int, error) {
			if i == 2 {
				<-ctx.Done() // hang until the watchdog cancels us
				unwound.Store(true)
				return 0, ctx.Err()
			}
			return i, nil
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
	// the engine returns without waiting for abandoned cells.
	deadline := time.Now().Add(2 * time.Second)
	for !unwound.Load() {
		if time.Now().After(deadline) {
			t.Fatal("abandoned cell never saw its context cancel")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRetryTransient: a cell failing transiently succeeds on a later
// attempt; backoff sleeps happen between attempts; results are intact.
func TestRetryTransient(t *testing.T) {
	var attempts [6]atomic.Int32
	var slept []time.Duration
	var mu sync.Mutex
	pol := Policy{
		OnError:     Retry,
		MaxAttempts: 3,
		Backoff:     10 * time.Millisecond,
		sleep: func(_ context.Context, d time.Duration) {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
		},
	}
	out, fails, err := MapWorkersPolicy(context.Background(), 2, len(attempts), nil, pol,
		func(_ context.Context, _, i int) (int, error) {
			if n := attempts[i].Add(1); i == 3 && n < 3 {
				return 0, fmt.Errorf("transient glitch %d", n)
			}
			return i * 10, nil
		})
	if err != nil || len(fails) != 0 {
		t.Fatalf("err=%v fails=%v", err, fails)
	}
	if out[3] != 30 {
		t.Errorf("retried cell result = %d, want 30", out[3])
	}
	if got := attempts[3].Load(); got != 3 {
		t.Errorf("cell 3 ran %d times, want 3", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 20*time.Millisecond {
		t.Errorf("backoff sleeps = %v, want [10ms 20ms]", slept)
	}
}

// TestRetryExhaustionAborts: a persistently failing cell aborts the sweep
// after MaxAttempts, reporting the attempt count in the error.
func TestRetryExhaustionAborts(t *testing.T) {
	var runs atomic.Int32
	pol := Policy{OnError: Retry, MaxAttempts: 3, sleep: func(context.Context, time.Duration) {}}
	_, _, err := MapWorkersPolicy(context.Background(), 1, 2, nil, pol,
		func(_ context.Context, _, i int) (int, error) {
			if i == 1 {
				runs.Add(1)
				return 0, errors.New("hard failure")
			}
			return 0, nil
		})
	var ce *CellError
	if !errors.As(err, &ce) || ce.Cell != 1 || ce.Attempt != 3 {
		t.Fatalf("err = %v, want cell 1 attempt 3", err)
	}
	if runs.Load() != 3 {
		t.Errorf("cell ran %d times, want 3", runs.Load())
	}
}

// TestRetryRespectsTransient: a non-transient error is not retried even
// under the retry policy.
func TestRetryRespectsTransient(t *testing.T) {
	permanent := errors.New("permanent")
	var runs atomic.Int32
	pol := Policy{
		OnError:   Retry,
		Transient: func(err error) bool { return !errors.Is(err, permanent) },
		sleep:     func(context.Context, time.Duration) {},
	}
	_, _, err := MapWorkersPolicy(context.Background(), 1, 1, nil, pol,
		func(_ context.Context, _, i int) (int, error) {
			runs.Add(1)
			return 0, permanent
		})
	var ce *CellError
	if !errors.As(err, &ce) || ce.Attempt != 1 {
		t.Fatalf("err = %v, want a first-attempt failure", err)
	}
	if runs.Load() != 1 {
		t.Errorf("non-transient error retried: %d runs", runs.Load())
	}
}

// TestSkipPolicyReportsHoles: skip-mode completes the sweep, returns the
// good results, and reports each failure as a sorted CellFailure.
func TestSkipPolicyReportsHoles(t *testing.T) {
	pol := Policy{OnError: Skip}
	out, fails, err := MapWorkersPolicy(context.Background(), 4, 20, nil, pol,
		func(_ context.Context, _, i int) (int, error) {
			if i == 17 || i == 3 {
				return 0, fmt.Errorf("bad cell %d", i)
			}
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 2 || fails[0].Cell != 3 || fails[1].Cell != 17 {
		t.Fatalf("fails = %v, want sorted cells 3 and 17", fails)
	}
	var ce *CellError
	if !errors.As(fails[0].Err, &ce) || ce.Cell != 3 {
		t.Fatalf("hole error not a *CellError: %v", fails[0].Err)
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
}

// TestSkipFunc: cells marked by Policy.Skip never execute and produce no
// monitor callbacks — the path result-store hits splice in through.
func TestSkipFunc(t *testing.T) {
	var ran [10]atomic.Int32
	var starts atomic.Int32
	m := monitorFuncs{
		start: func(cell, worker int) { starts.Add(1) },
		done:  func(int, int, time.Duration, error) {},
	}
	pol := Policy{Skip: func(i int) bool { return i%2 == 0 }}
	out, _, err := MapWorkersPolicy(context.Background(), 3, len(ran), m, pol,
		func(_ context.Context, _, i int) (int, error) {
			ran[i].Add(1)
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		want := int32(1)
		if i%2 == 0 {
			want = 0
		}
		if got := ran[i].Load(); got != want {
			t.Errorf("cell %d ran %d times, want %d", i, got, want)
		}
		if i%2 == 0 && out[i] != 0 {
			t.Errorf("skipped cell %d has result %d", i, out[i])
		}
	}
	if starts.Load() != 5 {
		t.Errorf("monitor saw %d starts, want 5 (skipped cells are invisible)", starts.Load())
	}
}

// countingMonitor records exactly-once semantics and final errors.
type countingMonitor struct {
	mu      sync.Mutex
	started map[int]int
	done    map[int]int
	errs    map[int]error
	retries map[int]int
}

func newCountingMonitor() *countingMonitor {
	return &countingMonitor{started: map[int]int{}, done: map[int]int{}, errs: map[int]error{}, retries: map[int]int{}}
}

func (c *countingMonitor) CellStart(cell, worker int) {
	c.mu.Lock()
	c.started[cell]++
	c.mu.Unlock()
}

func (c *countingMonitor) CellDone(cell, worker int, d time.Duration, err error) {
	c.mu.Lock()
	c.done[cell]++
	c.errs[cell] = err
	c.mu.Unlock()
}

func (c *countingMonitor) CellRetry(cell, attempt int, err error) {
	c.mu.Lock()
	c.retries[cell]++
	c.mu.Unlock()
}

// TestMonitorExactlyOnceUnderFailure is the Monitor contract under
// failure: CellDone fires exactly once per started cell with the
// converted (typed) error — including cells still in flight when another
// cell fails.
func TestMonitorExactlyOnceUnderFailure(t *testing.T) {
	cm := newCountingMonitor()
	release := make(chan struct{})
	err := run(3, 100, cm, func(i int) error {
		switch i {
		case 4:
			// Hold two siblings in flight past the failure.
			<-release
			return nil
		case 5:
			<-release
			return errors.New("in-flight failure too")
		case 6:
			defer close(release)
			panic("primary failure")
		}
		return nil
	})
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CellError", err)
	}
	cm.mu.Lock()
	defer cm.mu.Unlock()
	for cell, n := range cm.started {
		if n != 1 {
			t.Errorf("cell %d started %d times", cell, n)
		}
		if d := cm.done[cell]; d != 1 {
			t.Errorf("cell %d: CellStart fired but CellDone fired %d times", cell, d)
		}
	}
	for cell, n := range cm.done {
		if cm.started[cell] != n {
			t.Errorf("cell %d: %d dones for %d starts", cell, n, cm.started[cell])
		}
	}
	// The panicking and failing cells' monitors saw the converted errors.
	var pe *PanicError
	if !errors.As(cm.errs[6], &pe) || pe.Cell != 6 {
		t.Errorf("cell 6's CellDone error = %v, want its *PanicError", cm.errs[6])
	}
	if !errors.As(cm.errs[5], &ce) || ce.Cell != 5 {
		t.Errorf("cell 5's CellDone error = %v, want its *CellError", cm.errs[5])
	}
	if cm.errs[4] != nil {
		t.Errorf("cell 4 (in flight, succeeded) got error %v", cm.errs[4])
	}
}

// TestMonitorExactlyOnceUnderCancellation: cells in flight at cancel time
// still get their CellDone; unclaimed cells get neither callback.
func TestMonitorExactlyOnceUnderCancellation(t *testing.T) {
	cm := newCountingMonitor()
	ctx, cancel := context.WithCancel(context.Background())
	_, _, err := MapWorkersPolicy(ctx, 2, 1000, cm, Policy{},
		func(ctx context.Context, w, i int) (struct{}, error) {
			if i == 1 {
				cancel()
			}
			return struct{}{}, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if len(cm.started) == 0 || len(cm.started) == 1000 {
		t.Fatalf("%d cells started; cancellation should stop the sweep partway", len(cm.started))
	}
	for cell, n := range cm.started {
		if n != 1 || cm.done[cell] != 1 {
			t.Errorf("cell %d: started %d, done %d, want 1/1", cell, n, cm.done[cell])
		}
	}
}

// TestRetryMonitorSeesAttempts: a RetryMonitor observes each retried
// attempt while CellDone still fires exactly once.
func TestRetryMonitorSeesAttempts(t *testing.T) {
	cm := newCountingMonitor()
	var tries atomic.Int32
	pol := Policy{OnError: Retry, MaxAttempts: 4, sleep: func(context.Context, time.Duration) {}}
	_, _, err := MapWorkersPolicy(context.Background(), 1, 3, cm, pol,
		func(_ context.Context, _, i int) (struct{}, error) {
			if i == 1 && tries.Add(1) < 3 {
				return struct{}{}, errors.New("flaky")
			}
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if cm.retries[1] != 2 {
		t.Errorf("retry monitor saw %d retries for cell 1, want 2", cm.retries[1])
	}
	if cm.done[1] != 1 {
		t.Errorf("CellDone fired %d times for the retried cell, want 1", cm.done[1])
	}
	if cm.errs[1] != nil {
		t.Errorf("retried-then-successful cell reported error %v", cm.errs[1])
	}
}

// TestLegacyEntryPointsWrapErrors pins that a failing cell under the zero
// Policy — the form the old Run/Map family wrapped — reports *CellError.
func TestLegacyEntryPointsWrapErrors(t *testing.T) {
	cause := errors.New("cause")
	_, _, err := MapWorkersPolicy(context.Background(), 2, 8, nil, Policy{}, func(_ context.Context, _, i int) (int, error) {
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
		Policy OnError `json:"on_cell_error,omitempty"`
	}
	for _, pol := range []OnError{Abort, Skip, Retry} {
		data, err := json.Marshal(spec{Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		var got spec
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		if got.Policy != pol {
			t.Errorf("round trip %v -> %s -> %v", pol, data, got.Policy)
		}
	}
	var got spec
	if err := json.Unmarshal([]byte(`{"on_cell_error":"explode"}`), &got); err == nil {
		t.Error("unknown policy string unmarshaled without error")
	}
	if err := json.Unmarshal([]byte(`{"on_cell_error":"retry"}`), &got); err != nil || got.Policy != Retry {
		t.Errorf("retry spelling = %v, %v", got.Policy, err)
	}
}
