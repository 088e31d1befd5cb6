package sweep

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPanicBecomesError: a panicking cell must not kill the process; it
// surfaces as a *PanicError naming the cell and carrying a stack trace,
// through both the serial and parallel paths.
func TestPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := run(workers, 8, nil, func(i int) error {
			if i == 5 {
				panic("simulated blowup")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %T %v, want *PanicError", workers, err, err)
		}
		if pe.Cell != 5 {
			t.Errorf("workers=%d: panic attributed to cell %d, want 5", workers, pe.Cell)
		}
		var ce *CellError
		if !errors.As(err, &ce) || ce.Cell != 5 {
			t.Errorf("workers=%d: panic not wrapped in cell 5's *CellError: %v", workers, err)
		}
		// The one-line form names the value and the panic site but never
		// dumps the stack (that is what Verbose is for).
		if !strings.Contains(pe.Error(), "simulated blowup") ||
			!strings.Contains(pe.Error(), "monitor_test.go") {
			t.Errorf("workers=%d: error lacks value or panic site:\n%s", workers, pe.Error())
		}
		if strings.ContainsAny(pe.Error(), "\n") || strings.Contains(pe.Error(), "goroutine") {
			t.Errorf("workers=%d: Error() leaks the multi-line stack: %q", workers, pe.Error())
		}
		if !strings.Contains(pe.Verbose(), "goroutine") || !strings.Contains(pe.Verbose(), "monitor_test.go") {
			t.Errorf("workers=%d: Verbose() lacks the stack:\n%s", workers, pe.Verbose())
		}
	}
}

// TestPanicKeepsLowestIndexSemantics: a panic competes with ordinary
// errors under the same lowest-failing-index rule.
func TestPanicKeepsLowestIndexSemantics(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		err := run(8, 64, nil, func(i int) error {
			switch i {
			case 9:
				return fmt.Errorf("plain failure")
			case 40:
				panic("late panic")
			}
			return nil
		})
		var ce *CellError
		if !errors.As(err, &ce) || ce.Cell != 9 || err.Error() != "sweep: cell 9: plain failure" {
			t.Fatalf("trial %d: err = %v, want cell 9's plain failure", trial, err)
		}
	}
}

// TestProtectNamesThePanicSite: a panic recovered by Protect, as every
// cell's is, names the panicking line — not the recover plumbing, and not
// the runtime frames of a panic the runtime raised.
func TestProtectNamesThePanicSite(t *testing.T) {
	var nilMap map[string]int
	for name, fn := range map[string]func() error{
		"panic":   func() error { panic("kaboom") },
		"runtime": func() error { nilMap["x"] = 1; return nil },
	} {
		var pe *PanicError
		if err := Protect(4, fn); !errors.As(err, &pe) || pe.Cell != 4 ||
			!strings.Contains(pe.Error(), " at sweep/monitor_test.go:") {
			t.Errorf("%s: err = %v, want cell 4's *PanicError sited in this file", name, err)
		}
	}
}

// TestMonitorSeesEveryCell: CellStart/CellDone fire exactly once per cell
// with matching worker ids and the cell's error.
func TestMonitorSeesEveryCell(t *testing.T) {
	const n = 100
	var started, done [n]atomic.Int32
	var startedOn [n]atomic.Int32
	var errSeen atomic.Int32
	m := monitorFuncs{
		start: func(cell, worker int) {
			started[cell].Add(1)
			startedOn[cell].Store(int32(worker))
		},
		done: func(cell, worker int, d time.Duration, err error) {
			done[cell].Add(1)
			if err != nil {
				errSeen.Add(1)
			}
			if d < 0 {
				t.Errorf("cell %d: negative duration", cell)
			}
			if int32(worker) != startedOn[cell].Load() {
				t.Errorf("cell %d: started on worker %d, done on %d", cell, startedOn[cell].Load(), worker)
			}
		},
	}
	err := run(4, n, m, func(i int) error {
		if i == 99 {
			return fmt.Errorf("tail error")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected the tail error")
	}
	for i := 0; i < n; i++ {
		if started[i].Load() != 1 || done[i].Load() != 1 {
			t.Fatalf("cell %d: started %d done %d, want 1/1", i, started[i].Load(), done[i].Load())
		}
	}
	if errSeen.Load() != 1 {
		t.Errorf("monitor saw %d errors, want 1", errSeen.Load())
	}
}

type monitorFuncs struct {
	start func(cell, worker int)
	done  func(cell, worker int, d time.Duration, err error)
}

func (m monitorFuncs) CellStart(cell, worker int) { m.start(cell, worker) }
func (m monitorFuncs) CellDone(cell, worker int, d time.Duration, err error) {
	m.done(cell, worker, d, err)
}

// TestTimingAccounting runs a sweep with one deliberately slow cell and
// checks record counts, busy-time accounting, and straggler detection.
func TestTimingAccounting(t *testing.T) {
	timing := NewTiming()
	const n = 16
	err := run(4, n, timing, func(i int) error {
		d := time.Millisecond
		if i == 7 {
			d = 60 * time.Millisecond
		}
		time.Sleep(d)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := timing.Cells()
	if len(cells) != n {
		t.Fatalf("%d cell records, want %d", len(cells), n)
	}
	for i, c := range cells {
		if c.Cell != i {
			t.Fatalf("record %d is cell %d (sorted order broken)", i, c.Cell)
		}
		if c.Err {
			t.Errorf("cell %d flagged as error", i)
		}
	}
	if med := timing.Median(); med <= 0 || med > 50*time.Millisecond {
		t.Errorf("median = %v, implausible", med)
	}
	stragglers := timing.Stragglers(5)
	if len(stragglers) == 0 || stragglers[0].Cell != 7 {
		t.Errorf("straggler detection missed cell 7: %+v", stragglers)
	}
	if busy := timing.BusySeconds(); busy < 0.06 {
		t.Errorf("busy seconds = %v, want at least the slow cell's 60ms", busy)
	}
	if u := timing.Utilization(4); u <= 0 || u > 1.01 {
		t.Errorf("utilization = %v, outside (0,1]", u)
	}
}

// TestTimingIdleWorkers: utilization arithmetic when the requested worker
// count exceeds the cell count. The honest denominator is Workers() — the
// workers that actually ran a cell — and the guards must return 0 rather
// than divide by idle workers, an empty record set, or a zero wall clock.
func TestTimingIdleWorkers(t *testing.T) {
	timing := NewTiming()

	// Empty collector: every derived statistic is 0, never NaN or panic.
	if u := timing.Utilization(4); u != 0 {
		t.Errorf("empty Utilization(4) = %v, want 0", u)
	}
	if w := timing.Workers(); w != 0 {
		t.Errorf("empty Workers() = %d, want 0", w)
	}
	if q := timing.Quantile(0.99); q != 0 {
		t.Errorf("empty Quantile = %v, want 0", q)
	}
	if m := timing.Median(); m != 0 {
		t.Errorf("empty Median = %v, want 0", m)
	}

	// Two cells land on workers 0 and 5 of a hypothetical 8-worker pool.
	timing.CellDone(0, 0, 10*time.Millisecond, nil)
	timing.CellDone(1, 5, 10*time.Millisecond, nil)
	if w := timing.Workers(); w != 2 {
		t.Errorf("Workers() = %d, want 2 (only shards with records count)", w)
	}

	// Non-positive denominators are guarded, not divided by.
	if u := timing.Utilization(0); u != 0 {
		t.Errorf("Utilization(0) = %v, want 0", u)
	}
	if u := timing.Utilization(-3); u != 0 {
		t.Errorf("Utilization(-3) = %v, want 0", u)
	}

	// Dividing by the requested pool (8) must read lower than dividing by
	// the workers that ran (2): that gap is exactly why callers clamp.
	honest, padded := timing.Utilization(timing.Workers()), timing.Utilization(8)
	if honest <= 0 || padded <= 0 || padded >= honest {
		t.Errorf("utilization honest=%v padded=%v, want 0 < padded < honest", honest, padded)
	}

	// A negative worker id (no sweep produces one, but the API tolerates
	// it) clamps to shard 0 instead of indexing out of bounds.
	timing.CellDone(2, -1, time.Millisecond, nil)
	if got := len(timing.Cells()); got != 3 {
		t.Errorf("records after negative-worker CellDone = %d, want 3", got)
	}
}

// TestTimingIdleWorkersEngine drives a real sweep with more workers than
// cells: Map clamps the pool, so utilization against Workers() must stay
// in (0, 1].
func TestTimingIdleWorkersEngine(t *testing.T) {
	timing := NewTiming()
	err := run(8, 2, timing, func(i int) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ran := timing.Workers()
	if ran < 1 || ran > 2 {
		t.Fatalf("Workers() = %d, want 1..2 for a 2-cell sweep", ran)
	}
	if u := timing.Utilization(ran); u <= 0 || u > 1.01 {
		t.Errorf("Utilization(%d) = %v, outside (0,1]", ran, u)
	}
}

// TestTimingQuantile pins the nearest-rank arithmetic on a deterministic
// set of durations, including the out-of-range clamps.
func TestTimingQuantile(t *testing.T) {
	timing := NewTiming()
	for i := 1; i <= 100; i++ {
		timing.CellDone(i-1, 0, time.Duration(i)*time.Millisecond, nil)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0, 1 * time.Millisecond},
		{0.5, 50 * time.Millisecond},  // int(0.5*99) = 49 -> ds[49]
		{0.95, 95 * time.Millisecond}, // int(0.95*99) = 94
		{0.99, 99 * time.Millisecond}, // int(0.99*99) = 98
		{1, 100 * time.Millisecond},
		{1.5, 100 * time.Millisecond}, // clamped to 1
		{-0.5, 1 * time.Millisecond},  // clamped to 0
	} {
		if got := timing.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

// TestMonitorsCombinesAndSkipsNil: the fan-out helper must drop nils and
// collapse to nil when nothing remains.
func TestMonitorsCombinesAndSkipsNil(t *testing.T) {
	if m := Monitors(nil, nil); m != nil {
		t.Fatalf("Monitors(nil, nil) = %v, want nil", m)
	}
	var calls atomic.Int32
	count := monitorFuncs{
		start: func(int, int) { calls.Add(1) },
		done:  func(int, int, time.Duration, error) { calls.Add(1) },
	}
	m := Monitors(nil, count, count)
	if err := run(2, 3, m, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2*2*3 {
		t.Errorf("combined monitor fired %d times, want %d", got, 2*2*3)
	}
}

// TestProgressLine: the progress monitor emits a labeled, \r-repainted
// line and Finish terminates it.
func TestProgressLine(t *testing.T) {
	var b strings.Builder
	p := NewProgress(&b, "t3")
	m := Monitors(p)
	if err := run(2, 5, m, func(i int) error {
		if i == 2 {
			return fmt.Errorf("boom")
		}
		return nil
	}); err == nil {
		t.Fatal("expected error from cell 2")
	}
	p.Finish()
	out := b.String()
	if !strings.Contains(out, "sweep t3:") || !strings.Contains(out, "cells done") {
		t.Errorf("progress output missing label or counts: %q", out)
	}
	if !strings.Contains(out, "errors") {
		t.Errorf("progress output missing error count: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("Finish did not terminate the line: %q", out)
	}
}
