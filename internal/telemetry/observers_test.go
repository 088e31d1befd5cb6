package telemetry

import (
	"strings"
	"testing"
	"time"

	"retstack/internal/sweep"
)

// TestSweepObserverCellDoneAllocs pins the cell hot path: without an
// event sink, CellDone moves the inflight gauge and nothing else — zero
// allocations, no shared state beyond the gauge.
func TestSweepObserverCellDoneAllocs(t *testing.T) {
	obs := NewSweepObserver(NewRegistry(), nil, "exp", "t3")
	allocs := testing.AllocsPerRun(100, func() {
		obs.CellStart(1, 3)
		obs.CellDone(1, 3, 2*time.Millisecond, nil)
	})
	if allocs != 0 {
		t.Errorf("CellDone allocated %.1f objects/op, want 0", allocs)
	}
}

// TestSweepObserverPublish: a sweep's per-worker records reach the
// registry only at Publish, once per call, with a per-worker busy-time
// series converted to milliseconds once per worker (so three 0.6ms cells
// publish 1ms, not three truncated zeros); the schema is present (at
// zero) before any publish, workers that did nothing publish no series,
// and a second sweep's Publish adds on top.
func TestSweepObserverPublish(t *testing.T) {
	reg := NewRegistry()
	obs := NewSweepObserver(reg, nil, "exp", "t3")

	expo := func() string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	// Eager registration: the families exist at zero before any cell.
	fresh := expo()
	for _, fam := range []string{MetricSweepCompleted, MetricSweepErrors, MetricSweepCellSeconds} {
		if !strings.Contains(fresh, fam) {
			t.Errorf("fresh exposition missing %s:\n%s", fam, fresh)
		}
	}

	// Two workers end three cells, one with an error; a third worker ends
	// three sub-millisecond cells; a fourth never got work.
	rec := func(worker int, ds ...time.Duration) sweep.WorkerStats {
		w := sweep.WorkerStats{Worker: worker}
		for i, d := range ds {
			w.Cells = append(w.Cells, sweep.CellTiming{Cell: 10*worker + i, Worker: worker, Elapsed: d})
			w.Finished++
			w.Busy += d
		}
		return w
	}
	ws := []sweep.WorkerStats{
		rec(0, 100*time.Millisecond),
		rec(1, 200*time.Millisecond, 50*time.Millisecond),
		rec(2, 600*time.Microsecond, 600*time.Microsecond, 600*time.Microsecond),
		rec(3),
	}
	ws[1].Cells[1].Err, ws[1].Errs = true, 1

	obs.Publish(ws)
	got := expo()
	for _, want := range []string{
		MetricSweepCompleted + `{exp="t3"} 6`,
		MetricSweepErrors + `{exp="t3"} 1`,
		MetricSweepCellSeconds + `_count{exp="t3"} 6`,
		MetricSweepCellSeconds + `_sum{exp="t3"} 0.3518`,
		MetricSweepWorkerMs + `{exp="t3",worker="0"} 100`,
		MetricSweepWorkerMs + `{exp="t3",worker="1"} 250`,
		MetricSweepWorkerMs + `{exp="t3",worker="2"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("published exposition missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, `worker="3"`) {
		t.Errorf("a worker that ended no cell published a busy series:\n%s", got)
	}

	// A second sweep through the same observer folds on top.
	obs.Publish([]sweep.WorkerStats{rec(0, 10*time.Millisecond)})
	got = expo()
	for _, want := range []string{
		MetricSweepCompleted + `{exp="t3"} 7`,
		MetricSweepWorkerMs + `{exp="t3",worker="0"} 110`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("second sweep did not accumulate %q:\n%s", want, got)
		}
	}
}

// TestSweepObserverInflightLive: the inflight gauge is the one shared
// quantity that must move in real time, not at Publish.
func TestSweepObserverInflightLive(t *testing.T) {
	reg := NewRegistry()
	obs := NewSweepObserver(reg, nil)
	obs.CellStart(0, 0)
	obs.CellStart(1, 1)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), MetricSweepInflight+" 2") {
		t.Errorf("inflight gauge not live:\n%s", b.String())
	}
	obs.CellDone(0, 0, time.Millisecond, nil)
	obs.CellDone(1, 1, time.Millisecond, nil)
}
