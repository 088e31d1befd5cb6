package sweep

import (
	"errors"
	"fmt"
	"math"
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
// one failing cell and checks the workers' cell records: one per cell,
// in cell order through Cells, owned by the worker that ended it, summing
// to the workers' busy time, with the failure flagged and the slow cell
// named the straggler.
func TestTimingAccounting(t *testing.T) {
	const n = 16
	ws, err := runStats(4, n, nil, func(i int) error {
		d := time.Millisecond
		if i == 7 {
			d = 60 * time.Millisecond
		}
		time.Sleep(d)
		if i == n-1 { // claimed last, so every cell still runs
			return errors.New("tail error")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected the tail error")
	}
	var busy, elapsed time.Duration
	for _, w := range ws {
		busy += w.Busy
		if len(w.Cells) != w.Finished {
			t.Errorf("worker %d: %d records, %d cells finished", w.Worker, len(w.Cells), w.Finished)
		}
		for _, c := range w.Cells {
			if c.Worker != w.Worker {
				t.Errorf("cell %d: recorded by worker %d, names worker %d", c.Cell, w.Worker, c.Worker)
			}
		}
	}
	cells := Cells(ws)
	if len(cells) != n {
		t.Fatalf("%d cell records, want %d", len(cells), n)
	}
	for i, c := range cells {
		if c.Cell != i {
			t.Fatalf("record %d is cell %d (sorted order broken)", i, c.Cell)
		}
		if c.Err != (i == n-1) {
			t.Errorf("cell %d: Err = %v", i, c.Err)
		}
		elapsed += c.Elapsed
	}
	if elapsed != busy || busy < 60*time.Millisecond {
		t.Errorf("cells sum to %v, workers were busy %v; want equal, at least the slow cell's 60ms", elapsed, busy)
	}
	if med := Median(cells); med <= 0 || med > 50*time.Millisecond {
		t.Errorf("median = %v, implausible", med)
	}
	stragglers := Stragglers(cells, 5)
	if len(stragglers) == 0 || stragglers[0].Cell != 7 {
		t.Errorf("straggler detection missed cell 7: %+v", stragglers)
	}
}

// TestTimingQuantile pins the median and straggler arithmetic on a
// deterministic set of durations, in any record order, and the empty
// record.
func TestTimingQuantile(t *testing.T) {
	var cells []CellTiming
	for i := 100; i >= 1; i-- {
		cells = append(cells, CellTiming{Cell: i - 1, Elapsed: time.Duration(i) * time.Millisecond})
	}
	if got := Median(cells); got != 51*time.Millisecond {
		t.Errorf("Median = %v, want the upper middle 51ms", got)
	}
	// The cut is 1.92 × 51ms = 97.92ms.
	if got := Stragglers(cells, 1.92); len(got) != 3 || got[0].Elapsed != 100*time.Millisecond || got[2].Elapsed != 98*time.Millisecond {
		t.Errorf("Stragglers(1.92) = %+v, want the 100, 99 and 98ms cells, slowest first", got)
	}
	if Median(nil) != 0 || Stragglers(nil, 3) != nil || Cells(nil) != nil {
		t.Error("an empty record must read 0, never panic")
	}
}

// TestUtilization: utilization counts only the workers that ended a
// cell. Two workers busy 60 and 40 ms of a 100 ms sweep beside an idle
// third are 50% busy, not 33%.
func TestUtilization(t *testing.T) {
	ws := []WorkerStats{
		{Worker: 0, Busy: 60 * time.Millisecond, Cells: []CellTiming{{Cell: 0, Elapsed: 60 * time.Millisecond}}},
		{Worker: 1, Wait: 100 * time.Millisecond},
		{Worker: 2, Busy: 40 * time.Millisecond, Cells: []CellTiming{{Cell: 1, Worker: 2, Elapsed: 40 * time.Millisecond}}},
	}
	if got := Utilization(ws, 100*time.Millisecond); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
	if Utilization(ws[1:2], time.Second) != 0 || Utilization(ws, 0) != 0 || Utilization(nil, time.Second) != 0 {
		t.Error("no worker that ended a cell, or no wall clock, must read 0")
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
