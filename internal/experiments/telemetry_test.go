package experiments

import (
	"reflect"
	"sync/atomic"
	"testing"

	"retstack/internal/pipeline"
	"retstack/internal/sweep"
)

// TestTelemetryDoesNotPerturb is the determinism contract for the
// observability layer: running an experiment with the worker-stats hook
// and a cycle sampler attached must render byte-identical tables and equal
// structured values versus a plain run, at any worker count. a7 covers
// SMT cells.
func TestTelemetryDoesNotPerturb(t *testing.T) {
	for _, exp := range []string{"t3", "a7"} {
		t.Run(exp, func(t *testing.T) { checkTelemetryInert(t, exp) })
	}
}

func checkTelemetryInert(t *testing.T, exp string) {
	base := Params{InstBudget: 6_000, Workloads: []string{"go", "li"}, Parallel: 1}
	plain, err := Run(exp, base)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		p := base
		p.Parallel = workers
		var ws []sweep.WorkerStats
		p.OnWorkerStats = func(s []sweep.WorkerStats) { ws = s }
		var samples atomic.Int64
		p.Sample = func(cell int, sm pipeline.Sample) {
			samples.Add(1)
			if sm.RUUOccupancy < 0 || sm.RASDepth < 0 {
				t.Errorf("cell %d: negative occupancy in sample %+v", cell, sm)
			}
		}
		p.SampleEvery = 64

		res, err := Run(exp, p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.String() != plain.String() {
			t.Errorf("workers=%d: table output diverges with telemetry attached", workers)
		}
		if !reflect.DeepEqual(res.Values, plain.Values) {
			t.Errorf("workers=%d: structured values diverge with telemetry attached", workers)
		}
		if samples.Load() == 0 {
			t.Error("cycle sampler never fired")
		}
		cells := sweep.Cells(ws)
		if len(cells) == 0 {
			t.Error("the sweep recorded no cells")
		}
		for _, c := range cells {
			if c.Elapsed <= 0 {
				t.Errorf("cell %d: non-positive elapsed time", c.Cell)
			}
		}
	}
}

// TestOnWorkerStatsOncePerRun pins the hook's contract: every experiment
// sweeps at most once, so OnWorkerStats fires once per Run for every id
// but t1, which simulates nothing and never fires it, and the records it
// hands over are the cells the monitor saw end. A rerun the store serves
// entirely still fires it once, with no workers.
func TestOnWorkerStatsOncePerRun(t *testing.T) {
	run := func(id string, p Params) (calls int, ws []sweep.WorkerStats) {
		t.Helper()
		counts := newCellCounts()
		p.Monitor = counts
		p.OnWorkerStats = func(s []sweep.WorkerStats) { calls, ws = calls+1, s }
		if _, err := Run(id, p); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := len(sweep.Cells(ws)); got != len(counts.dones) {
			t.Errorf("%s: %d cell records, the monitor saw %d cells end", id, got, len(counts.dones))
		}
		return calls, ws
	}
	p := Params{InstBudget: 2_000, Workloads: []string{"go", "li"}, Parallel: 2}
	for _, id := range IDs() {
		want := 1
		if id == "t1" {
			want = 0
		}
		if calls, _ := run(id, p); calls != want {
			t.Errorf("%s: OnWorkerStats fired %d times, want %d", id, calls, want)
		}
	}

	p.Store, p.StoreScope = openStore(t, t.TempDir()), "s"
	for _, pass := range []string{"cold", "warm"} {
		calls, ws := run("t3", p)
		if calls != 1 || (pass == "warm") != (len(ws) == 0) {
			t.Errorf("%s store run: OnWorkerStats fired %d times with %d workers, want once, with workers only when cold", pass, calls, len(ws))
		}
	}
}
